"""Figure 2: number of daily active users (viewers and broadcasters)."""

from __future__ import annotations

import numpy as np

from repro.analysis.plots import ascii_series
from repro.analysis.report import render_series
from repro.analysis.timeseries import DailySeries
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "fig2",
    "Figure 2: # of daily active users",
    "Periscope viewers grow 200K to >1M with ~10:1 viewer:broadcaster ratio; "
    "Meerkat viewers hover ~20K while its broadcasters decline.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed)
    meerkat = meerkat_trace(scale, seed)

    p_viewers, p_broadcasters = periscope.dataset.daily_active_users()
    m_viewers, m_broadcasters = meerkat.dataset.daily_active_users()

    viewer_series = DailySeries(p_viewers, "Periscope viewers")
    broadcaster_series = DailySeries(p_broadcasters, "Periscope broadcasters")
    ratio = viewer_series.ratio_to(broadcaster_series)

    data = {
        "periscope_viewers": p_viewers,
        "periscope_broadcasters": p_broadcasters,
        "meerkat_viewers": m_viewers,
        "meerkat_broadcasters": m_broadcasters,
        "periscope_viewer_growth": viewer_series.growth_factor(),
        "median_viewer_broadcaster_ratio": float(np.nanmedian(ratio)),
        "meerkat_broadcaster_decline": DailySeries(m_broadcasters).growth_factor(),
    }
    text = "\n".join(
        [
            ascii_series(
                {
                    "p_viewers": p_viewers,
                    "p_broadcasters": p_broadcasters,
                    "m_viewers": m_viewers,
                },
                title="Figure 2 — daily active users (normalized)",
                normalize=True,
            ),
            render_series(
                {
                    "p_viewers": p_viewers,
                    "p_broadcstr": p_broadcasters,
                    "m_viewers": m_viewers,
                    "m_broadcstr": m_broadcasters,
                },
                title="Figure 2 — daily active users (sampled days)",
            ),
            f"Periscope viewer growth: {data['periscope_viewer_growth']:.2f}x (paper: ~5x)",
            "Periscope viewer:broadcaster ratio (median): "
            f"{data['median_viewer_broadcaster_ratio']:.1f} (paper: ~10:1; note mobile-"
            "registered viewers only appear in our daily counts)",
            f"Meerkat broadcaster trend: {data['meerkat_broadcaster_decline']:.2f}x (paper: declining)",
        ]
    )
    return data, text
