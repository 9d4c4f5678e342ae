"""Figure 3: CDF of broadcast length."""

from __future__ import annotations

from repro.analysis.broadcast_stats import broadcast_length_cdf
from repro.analysis.plots import ascii_cdf
from repro.analysis.report import render_cdf_summary
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment

TEN_MINUTES_S = 600.0


@experiment(
    "fig3",
    "Figure 3: CDF of broadcast length",
    "85% of broadcasts last under 10 minutes on both apps; Meerkat's "
    "distribution is more skewed (a few much longer streams).",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope_cdf = broadcast_length_cdf(periscope_trace(scale, seed).dataset)
    meerkat_cdf = broadcast_length_cdf(meerkat_trace(scale, seed).dataset)

    data = {
        "periscope_under_10min": periscope_cdf.at(TEN_MINUTES_S),
        "meerkat_under_10min": meerkat_cdf.at(TEN_MINUTES_S),
        "periscope_p99_s": periscope_cdf.quantile(0.99),
        "meerkat_p99_s": meerkat_cdf.quantile(0.99),
        "periscope_cdf": periscope_cdf,
        "meerkat_cdf": meerkat_cdf,
    }
    text = "\n".join(
        [
            ascii_cdf(
                {"Periscope": periscope_cdf, "Meerkat": meerkat_cdf},
                title="Figure 3 — CDF of broadcast length (s, log x)",
                log_x=True,
            ),
            render_cdf_summary(
                {"Periscope (s)": periscope_cdf, "Meerkat (s)": meerkat_cdf},
                title="Figure 3 — broadcast length CDF",
            ),
            f"Periscope under 10 min: {data['periscope_under_10min']:.1%} (paper: ~85%)",
            f"Meerkat under 10 min: {data['meerkat_under_10min']:.1%} (paper: ~85%)",
        ]
    )
    return data, text
