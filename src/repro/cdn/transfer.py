"""The Wowza-to-Fastly chunk transfer model (Figure 15).

The paper infers that each Wowza DC hands fresh chunks to its *co-located*
Fastly POP, which then acts as a gateway distributing the chunk to the
other Fastly POPs — explaining the sharp >0.25 s gap between co-located
pairs and even nearby-city pairs (gateway coordination overhead), with
delay growing in distance beyond that.

The model composes, per (Wowza origin, Fastly destination) pair:

* origin handoff: Wowza to the co-located gateway POP (local, tens of ms),
* gateway coordination: cache-fill bookkeeping between the gateway and the
  destination POP (the ~0.25 s step),
* wide-area propagation: latency-model RTT between gateway and destination
  (request + response),
* chunk serialization over the inter-POP link,
* and the triggering viewer's poll offset (a fetch only starts when a
  viewer polls after chunklist expiry).

Everything but the jitter depends on the pair alone, so
:meth:`TransferModel.sampler` computes it once per pair and returns a
function that draws only the variates per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.geo.datacenters import WOWZA_DATACENTERS, Datacenter, colocated_fastly
from repro.geo.latency import LatencyModel

#: The gateway POP of each catalog Wowza site, a per-site constant.
_GATEWAYS = {site: colocated_fastly(site) for site in WOWZA_DATACENTERS}


@dataclass
class TransferModel:
    """Samples Wowza→Fastly chunk transfer delay (timestamps ⑦→⑪)."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    handoff_s: float = 0.06  # Wowza -> co-located gateway POP
    handoff_jitter_sigma: float = 0.35
    coordination_s: float = 0.22  # gateway <-> remote POP cache-fill overhead
    coordination_jitter_sigma: float = 0.25
    chunk_bytes: float = 300_000.0  # ~3 s of 0.8 Mbps video
    interpop_bandwidth_bps: float = 1.0e8

    def gateway_for(self, wowza: Datacenter) -> Datacenter:
        return _GATEWAYS[wowza]

    def is_colocated(self, wowza: Datacenter, fastly: Datacenter) -> bool:
        return wowza.city == fastly.city

    def sampler(
        self, wowza: Datacenter, fastly: Datacenter
    ) -> Callable[[np.random.Generator], float]:
        """A function drawing chunk transfer delays from ``wowza`` to ``fastly``.

        What the pair fixes is computed once: the gateway, the co-location
        test, both one-way propagation bases.  Each call draws the handoff,
        then (away from the gateway city) the coordination and a jittered
        round trip, request out and chunk back.  The model's parameters are
        read here, so build a new sampler after changing them.

        A call draws its standard normals in one ``standard_normal`` call,
        into a buffer the sampler owns, and scales each as
        ``exp(sigma * z)``: the same bits, from the same stream, as one
        ``rng.lognormal(0, sigma)`` per factor.
        """
        exp = math.exp
        handoff_s, handoff_sigma = self.handoff_s, self.handoff_jitter_sigma
        gateway = None if self.is_colocated(wowza, fastly) else self.gateway_for(wowza)
        if gateway is None or gateway.city == fastly.city:

            def handoff_only(rng: np.random.Generator) -> float:
                return handoff_s * exp(handoff_sigma * rng.standard_normal())

            return handoff_only
        coordination_s, coordination_sigma = self.coordination_s, self.coordination_jitter_sigma
        out_s = self.latency.propagation_s(gateway.location, fastly.location)
        back_s = self.latency.propagation_s(fastly.location, gateway.location)
        jitter_sigma = self.latency.jitter_sigma
        serialization_s = self.chunk_bytes * 8.0 / self.interpop_bandwidth_bps
        draws = 4 if jitter_sigma > 0 else 2
        normals = np.empty(draws)  # refilled by every call

        def via_gateway(rng: np.random.Generator) -> float:
            z = rng.standard_normal(out=normals).tolist()
            out, back = out_s, back_s
            if draws == 4:
                out *= exp(jitter_sigma * z[2])
                back *= exp(jitter_sigma * z[3])
            return (
                handoff_s * exp(handoff_sigma * z[0])
                + coordination_s * exp(coordination_sigma * z[1])
                + (out + back)
                + serialization_s
            )

        return via_gateway

    def transfer_delay_s(
        self,
        wowza: Datacenter,
        fastly: Datacenter,
        rng: np.random.Generator,
    ) -> float:
        """One sampled chunk transfer delay from ``wowza`` to ``fastly``.

        Excludes the triggering poll offset — callers that model polling
        (the delay crawler polls on a 0.1 s grid) add it on top.
        """
        return self.sampler(wowza, fastly)(rng)

    def expected_transfer_delay_s(self, wowza: Datacenter, fastly: Datacenter) -> float:
        """Jitter-free transfer delay (for analytic comparisons)."""
        if self.is_colocated(wowza, fastly):
            return self.handoff_s
        gateway = self.gateway_for(wowza)
        if gateway.city == fastly.city:
            return self.handoff_s
        propagation = 2.0 * self.latency.propagation_s(gateway.location, fastly.location)
        serialization = self.chunk_bytes * 8.0 / self.interpop_bandwidth_bps
        return self.handoff_s + self.coordination_s + propagation + serialization
