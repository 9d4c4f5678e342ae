"""Figure 6: distribution of broadcast views and creations over users."""

from __future__ import annotations

from repro.analysis.broadcast_stats import (
    creations_per_user_cdf,
    viewer_activity_skew,
    views_per_user_cdf,
)
from repro.analysis.plots import ascii_cdf
from repro.analysis.report import render_cdf_summary
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "fig6",
    "Figure 6: distribution of broadcast views and creation over users",
    "User activity is highly skewed on both apps; the top 15% of Periscope "
    "viewers watch ~10x more broadcasts than the median viewer.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed).dataset
    meerkat = meerkat_trace(scale, seed).dataset

    p_views = views_per_user_cdf(periscope)
    p_creates = creations_per_user_cdf(periscope)
    m_views = views_per_user_cdf(meerkat)
    m_creates = creations_per_user_cdf(meerkat)
    skew = viewer_activity_skew(p_views, top_fraction=0.15)

    data = {
        "periscope_top15_vs_median": skew,
        "periscope_views_cdf": p_views,
        "periscope_creates_cdf": p_creates,
        "meerkat_views_cdf": m_views,
        "meerkat_creates_cdf": m_creates,
    }
    text = "\n".join(
        [
            ascii_cdf(
                {"views/user": p_views, "creates/user": p_creates},
                title="Figure 6 — CDF of per-user activity (Periscope, log x)",
                log_x=True,
            ),
            render_cdf_summary(
                {
                    "Periscope views/user": p_views,
                    "Periscope creates/user": p_creates,
                    "Meerkat views/user": m_views,
                    "Meerkat creates/user": m_creates,
                },
                title="Figure 6 — per-user activity CDF",
            ),
            f"Top-15% Periscope viewers watch {skew:.1f}x the median viewer"
            " (paper: ~10x)",
        ]
    )
    return data, text
