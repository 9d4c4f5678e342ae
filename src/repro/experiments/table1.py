"""Table 1: basic statistics of the broadcast datasets."""

from __future__ import annotations

from repro.analysis.broadcast_stats import table1_rows
from repro.analysis.report import format_table
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment

#: Paper values (full scale), used to report the re-scaled comparison.
PAPER_TABLE1 = {
    "Periscope": {
        "broadcasts": 19_600_000,
        "broadcasters": 1_850_000,
        "total_views": 705_000_000,
        "unique_viewers": 7_650_000,
    },
    "Meerkat": {
        "broadcasts": 164_000,
        "broadcasters": 57_000,
        "total_views": 3_800_000,
        "unique_viewers": 183_000,
    },
}


@experiment(
    "table1",
    "Table 1: basic statistics of the broadcast datasets",
    "Periscope (3 months): 19.6M broadcasts / 1.85M broadcasters / 705M views / "
    "7.65M unique viewers.  Meerkat (1 month): 164K / 57K / 3.8M / 183K.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed)
    meerkat = meerkat_trace(scale, seed)
    measured = table1_rows([periscope.dataset, meerkat.dataset])
    # Each trace carries its own generation scale (Meerkat is crawled at a
    # boosted relative scale for statistical resolution).
    app_scales = {
        periscope.app_name: periscope.config.scale,
        meerkat.app_name: meerkat.config.scale,
    }

    rows: dict[str, dict[str, object]] = {}
    for app, row in measured.items():
        app_scale = app_scales[app]
        rows[f"{app} (scale={app_scale:g})"] = row
        rows[f"{app} (rescaled x{1 / app_scale:g})"] = {
            key: int(value / app_scale) for key, value in row.items()
        }
        rows[f"{app} (paper)"] = PAPER_TABLE1[app]

    rescaled = {
        app: {key: int(value / app_scales[app]) for key, value in row.items()}
        for app, row in measured.items()
    }
    text = format_table(rows, title="Table 1 — dataset statistics", row_header="dataset")
    data = {
        "measured": measured,
        "rescaled": rescaled,
        "paper": PAPER_TABLE1,
        "scale": scale,
        "app_scales": app_scales,
    }
    return data, text
