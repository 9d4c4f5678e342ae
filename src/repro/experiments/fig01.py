"""Figure 1: number of daily broadcasts over the measurement window."""

from __future__ import annotations

import numpy as np

from repro.analysis.plots import ascii_series
from repro.analysis.report import render_series
from repro.analysis.timeseries import DailySeries
from repro.crawler.dataset import DowntimeWindow
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, meerkat_trace, periscope_trace
from repro.experiments.registry import experiment

#: The paper's crawler outage: Aug 7–9, 2015 = days 84–86, losing ~4.5% of
#: that period's broadcasts.
CRAWLER_DOWNTIME = DowntimeWindow(start_day=84.0, end_day=86.0, loss_fraction=0.9)


@experiment(
    "fig1",
    "Figure 1: # of daily broadcasts",
    "Periscope grows >300% in 3 months with weekend peaks / Monday troughs and a "
    "jump at the Android launch (day 11); Meerkat nearly halves in a month; a "
    "crawler outage dents days 84-86.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    periscope = periscope_trace(scale, seed)
    meerkat = meerkat_trace(scale, seed)

    survivors = periscope.dataset.downtime_survivors(
        CRAWLER_DOWNTIME, np.random.default_rng(seed)
    )
    periscope_daily = DailySeries(
        periscope.dataset.daily_broadcast_counts(survivors), "Periscope"
    )
    meerkat_daily = DailySeries(meerkat.dataset.daily_broadcast_counts(), "Meerkat")

    data = {
        "periscope_daily": periscope_daily.values,
        "meerkat_daily": meerkat_daily.values,
        "periscope_growth": periscope_daily.growth_factor(),
        "meerkat_growth": meerkat_daily.growth_factor(),
        "periscope_weekend_ratio": periscope_daily.weekend_weekday_ratio(first_weekday=4),
    }
    text = "\n".join(
        [
            ascii_series(
                {
                    "periscope": periscope_daily.values,
                    "meerkat": meerkat_daily.values,
                },
                title="Figure 1 — daily broadcasts (each normalized to its own max)",
                normalize=True,
            ),
            render_series(
                {
                    "periscope": periscope_daily.values,
                    "meerkat": meerkat_daily.values,
                },
                title="Figure 1 — daily broadcasts (sampled days)",
            ),
            f"Periscope growth factor (weekly-smoothed): {data['periscope_growth']:.2f}x"
            " (paper: >3x)",
            f"Meerkat growth factor: {data['meerkat_growth']:.2f}x (paper: ~0.5x)",
            f"Periscope weekend/weekday ratio: {data['periscope_weekend_ratio']:.2f}"
            " (paper: weekend peaks)",
        ]
    )
    return data, text
