"""CDN geolocation analysis (§5.3, Figure 15).

For every (Wowza origin, Fastly destination) datacenter pair, measure the
per-broadcast average Wowza2Fastly delay — chunk availability at the POP
(⑪) minus chunk-ready at the origin (⑦) — and group pairs by geographic
distance.  The paper's signature results, both of which the gateway-based
transfer model reproduces:

* delay grows with pair distance,
* there is a sharp >0.25 s gap between co-located pairs and even nearby
  (<500 km) city pairs, the footprint of gateway coordination.

The measured quantity includes the triggering crawler's poll offset
(uniform within the 0.1 s crawl interval), exactly as the paper's
estimate does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cdn.transfer import TransferModel
from repro.crawler.delay_crawler import POLL_INTERVAL_S
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.geo.latency import distance_bucket


@dataclass(frozen=True)
class GeoDelaySample:
    """One broadcast's mean Wowza2Fastly delay for one DC pair."""

    wowza: str
    fastly: str
    distance_km: float
    bucket: str
    mean_delay_s: float


def geolocation_study(
    rng: np.random.Generator,
    broadcasts_per_pair: int = 10,
    chunks_per_broadcast: int = 40,
    transfer: TransferModel | None = None,
) -> list[GeoDelaySample]:
    """Per-broadcast mean Wowza2Fastly delay across all catalog DC pairs."""
    if broadcasts_per_pair <= 0 or chunks_per_broadcast <= 0:
        raise ValueError("counts must be positive")
    model = transfer or TransferModel()
    samples: list[GeoDelaySample] = []
    for wowza in WOWZA_DATACENTERS:
        for fastly in FASTLY_DATACENTERS:
            distance = wowza.distance_km(fastly)
            bucket = "co-located" if model.is_colocated(wowza, fastly) else distance_bucket(distance)
            transfer_delay = model.sampler(wowza, fastly)
            for _ in range(broadcasts_per_pair):
                # The poll offset is uniform(0, interval), drawn as interval·u.
                delays = [
                    transfer_delay(rng) + POLL_INTERVAL_S * rng.random()
                    for _ in range(chunks_per_broadcast)
                ]
                samples.append(
                    GeoDelaySample(
                        wowza=wowza.name,
                        fastly=fastly.name,
                        distance_km=distance,
                        bucket=bucket,
                        mean_delay_s=float(np.mean(delays)),
                    )
                )
    return samples


def delays_by_bucket(samples: Sequence[GeoDelaySample]) -> dict[str, np.ndarray]:
    """Group per-broadcast delays by distance bucket (Figure 15's CDFs)."""
    grouped: dict[str, list[float]] = {}
    for sample in samples:
        grouped.setdefault(sample.bucket, []).append(sample.mean_delay_s)
    return {bucket: np.array(values) for bucket, values in grouped.items()}
