"""Figure 4: CDF of total viewers per broadcast."""

from __future__ import annotations

from repro.analysis.broadcast_stats import hls_broadcast_fraction, viewers_per_broadcast_cdf
from repro.analysis.plots import ascii_cdf
from repro.analysis.report import render_cdf_summary
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "fig4",
    "Figure 4: total # of viewers per broadcast",
    "Meerkat: ~60% of broadcasts get zero viewers.  Periscope: nearly all get "
    "at least one; the popular tail reaches ~100K viewers; 5.77% of broadcasts "
    "spill beyond the ~100-viewer RTMP tier.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed).dataset
    meerkat = meerkat_trace(scale, seed).dataset
    periscope_cdf = viewers_per_broadcast_cdf(periscope)
    meerkat_cdf = viewers_per_broadcast_cdf(meerkat)

    data = {
        "periscope_zero_viewer_fraction": periscope_cdf.at(0.0),
        "meerkat_zero_viewer_fraction": meerkat_cdf.at(0.0),
        "periscope_max_viewers": periscope_cdf.values[-1],
        "periscope_some_hls_fraction": hls_broadcast_fraction(periscope),
        "periscope_cdf": periscope_cdf,
        "meerkat_cdf": meerkat_cdf,
    }
    text = "\n".join(
        [
            ascii_cdf(
                {"Periscope": periscope_cdf, "Meerkat": meerkat_cdf},
                title="Figure 4 — CDF of viewers per broadcast (log x)",
                log_x=True,
            ),
            render_cdf_summary(
                {"Periscope": periscope_cdf, "Meerkat": meerkat_cdf},
                title="Figure 4 — viewers per broadcast CDF",
            ),
            f"Meerkat zero-viewer broadcasts: {data['meerkat_zero_viewer_fraction']:.1%}"
            " (paper: ~60%)",
            f"Periscope zero-viewer broadcasts: {data['periscope_zero_viewer_fraction']:.1%}"
            " (paper: near 0%)",
            f"Periscope broadcasts beyond the RTMP tier (>100 viewers): "
            f"{data['periscope_some_hls_fraction']:.2%} (paper: 5.77%)",
        ]
    )
    return data, text
