"""Figure 11: HLS/RTMP end-to-end delay breakdown."""

from __future__ import annotations

from repro.analysis.delay_stats import breakdown_rows
from repro.analysis.plots import ascii_stacked_bars
from repro.analysis.report import format_table
from repro.core.delay_breakdown import ControlledExperiment
from repro.experiments.registry import experiment

#: The paper's measured component means (seconds).
PAPER_BREAKDOWN = {
    "rtmp (paper)": {"upload": 0.2, "last_mile": 0.15, "buffering": 1.05, "total": 1.4},
    "hls (paper)": {
        "upload": 0.2,
        "chunking": 3.0,
        "wowza2fastly": 0.3,
        "polling": 1.2,
        "last_mile": 0.15,
        "buffering": 6.9,
        "total": 11.7,
    },
}


@experiment(
    "fig11",
    "Figure 11: HLS/RTMP end-to-end delay breakdown",
    "RTMP total ~1.4 s; HLS total ~11.7 s dominated by client buffering "
    "(6.9 s), chunking (3 s) and polling (1.2 s); Wowza2Fastly ~0.3 s.",
)
def run(repetitions: int = 10, seed: int = 7, duration_s: float = 120.0) -> tuple[dict, str]:
    experiment_run = ControlledExperiment(seed=seed, duration_s=duration_s)
    rtmp, hls = experiment_run.run(repetitions=repetitions)

    rows: dict[str, dict[str, float]] = {}
    measured = breakdown_rows([rtmp, hls])
    rows["rtmp (measured)"] = measured["rtmp"]
    rows["rtmp (paper)"] = PAPER_BREAKDOWN["rtmp (paper)"]
    rows["hls (measured)"] = measured["hls"]
    rows["hls (paper)"] = PAPER_BREAKDOWN["hls (paper)"]

    data = {
        "rtmp": rtmp,
        "hls": hls,
        "rtmp_total_s": rtmp.total_s,
        "hls_total_s": hls.total_s,
        "hls_rtmp_ratio": hls.total_s / rtmp.total_s,
    }
    text = "\n".join(
        [
            ascii_stacked_bars(
                {"rtmp": rtmp.components, "hls": hls.components},
                title="Figure 11 — end-to-end delay breakdown",
            ),
            format_table(
                rows,
                title="Figure 11 — end-to-end delay breakdown (seconds)",
                row_header="protocol",
            ),
            f"HLS/RTMP total delay ratio: {data['hls_rtmp_ratio']:.1f}x (paper: ~8.4x)",
        ]
    )
    return data, text
