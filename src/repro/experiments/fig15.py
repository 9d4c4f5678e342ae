"""Figure 15: Wowza-to-Fastly delay by datacenter distance."""

from __future__ import annotations

import numpy as np

from repro.analysis.delay_stats import colocation_gap_s, geolocation_cdfs
from repro.analysis.plots import ascii_cdf
from repro.analysis.report import render_cdf_summary
from repro.core.geolocation import geolocation_study
from repro.experiments.registry import experiment
from repro.geo.latency import DISTANCE_BUCKETS


@experiment(
    "fig15",
    "Figure 15: Wowza-to-Fastly delay by DC-pair distance",
    "Delay grows with pair distance, and co-located pairs are >0.25 s faster "
    "than even nearby (<500 km) pairs — the footprint of gateway-based chunk "
    "distribution.",
)
def run(
    seed: int = 15, broadcasts_per_pair: int = 10, chunks_per_broadcast: int = 40
) -> tuple[dict, str]:
    rng = np.random.default_rng(seed)
    samples = geolocation_study(
        rng,
        broadcasts_per_pair=broadcasts_per_pair,
        chunks_per_broadcast=chunks_per_broadcast,
    )
    cdfs = geolocation_cdfs(samples)
    gap = colocation_gap_s(samples)

    ordered = {
        label: cdfs[label] for label, _, _ in DISTANCE_BUCKETS if label in cdfs
    }
    medians = {label: cdf.median for label, cdf in ordered.items()}
    data = {"samples": samples, "cdfs": ordered, "medians": medians, "colocation_gap_s": gap}
    text = "\n".join(
        [
            ascii_cdf(ordered, title="Figure 15 — CDF of Wowza2Fastly delay by distance (s)", x_max=2.0),
            render_cdf_summary(ordered, title="Figure 15 — Wowza2Fastly delay (s) by distance"),
            f"Co-located vs <500 km median gap: {gap:.2f}s (paper: >0.25s)",
        ]
    )
    return data, text
