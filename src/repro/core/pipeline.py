"""The measurement-study pipeline facade.

Ties the substrates together into the paper's workflow:

1. **Passive delay crawling** (:class:`DelayMeasurementCampaign`): run many
   simulated broadcasts through the CDN with the fine-grained crawler
   attached, collecting per-broadcast frame-arrival traces (at Wowza) and
   chunk-availability traces (at a Fastly POP).  The paper crawled 16,013
   real broadcasts this way; the campaign size is configurable.
2. **Trace-driven analyses**: polling simulation (Figures 12–13) and
   playback/pre-buffer simulation (Figures 16–17) over those traces.
3. **Controlled experiments** (Figure 11) via
   :class:`~repro.core.delay_breakdown.ControlledExperiment`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.core.playback import poll_pickup_times
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.regions import sample_user_location
from repro.platform.apps import AppProfile, PERISCOPE_PROFILE
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.distributions import lognormal_from_median

#: Broadcast durations: a lognormal around the campaign's median with this
#: sigma, clipped below at ``MIN_DURATION_S``.
DURATION_SIGMA = 0.5
MIN_DURATION_S = 60.0
#: Broadcaster uplinks are realistic mobile links with bursty outages;
#: §6 attributes the long RTMP buffering tail to them.  These differ from
#: ``LastMileLink.mobile_uplink``'s defaults.
OUTAGE_RATE_PER_S = 1.0 / 140.0
OUTAGE_MEAN_S = 3.0
#: §6's HLS viewers poll their chunklist every 2.8 s.
HLS_VIEWER_POLL_INTERVAL_S = 2.8


@dataclass(frozen=True)
class BroadcastTrace:
    """Fine-grained measurements of one crawled broadcast."""

    broadcast_id: int
    duration_s: float
    frame_arrivals: np.ndarray  # at the ingest server (② series)
    chunk_ready: np.ndarray  # at the ingest server (⑦ series)
    chunk_availability: np.ndarray  # at the crawled POP (⑪ series)
    chunk_duration_s: float
    frame_interval_s: float

    @property
    def chunk_count(self) -> int:
        return len(self.chunk_availability)


@dataclass
class DelayMeasurementCampaign:
    """Crawl ``n_broadcasts`` simulated broadcasts for delay traces."""

    n_broadcasts: int = 50
    seed: int = 2016
    profile: AppProfile = field(default_factory=lambda: PERISCOPE_PROFILE)
    duration_median_s: float = 180.0
    max_duration_s: float = 600.0
    #: Per-broadcast chunk-duration mix (None = every broadcast uses the
    #: profile's chunk size).  §5.2 observed >85.9% on 3 s with a spread of
    #: other sizes; pass ``repro.core.chunk_stats.PERISCOPE_CHUNK_MIX`` to
    #: reproduce that heterogeneity.
    chunk_duration_mix: dict[float, float] | None = None

    def run(self) -> list[BroadcastTrace]:
        streams = RandomStreams(self.seed)
        placement_rng = streams.get("placement")
        duration_rng = streams.get("durations")
        traces = []
        for index in range(self.n_broadcasts):
            duration = float(
                np.clip(
                    lognormal_from_median(
                        duration_rng, self.duration_median_s, DURATION_SIGMA
                    ),
                    MIN_DURATION_S,
                    self.max_duration_s,
                )
            )
            traces.append(self._crawl_one(index, duration, streams, placement_rng))
        return traces

    def _crawl_one(
        self,
        index: int,
        duration_s: float,
        streams: RandomStreams,
        placement_rng: np.random.Generator,
    ) -> BroadcastTrace:
        simulator = Simulator()
        local = streams.spawn(f"broadcast/{index}")
        assignment = CdnAssignment()
        transfer_model = TransferModel()

        broadcaster_location = sample_user_location(placement_rng)
        wowza_dc = assignment.wowza_for_broadcaster(broadcaster_location)
        # The crawler picks the POP nearest the broadcaster's ingest DC
        # (the paper ran dedicated crawlers near every DC; one suffices
        # per broadcast for trace collection).
        fastly_dc = assignment.fastly_for_viewer(wowza_dc.location)

        chunk_duration_s = self.profile.chunk_duration_s
        if self.chunk_duration_mix is not None:
            # Deferred: chunk_stats imports this module at module scope.
            from repro.core.chunk_stats import sample_chunk_duration

            chunk_duration_s = sample_chunk_duration(
                local.get("chunk-size"), self.chunk_duration_mix
            )
        frames_per_chunk = max(1, round(chunk_duration_s / self.profile.frame_interval_s))

        wowza = WowzaIngest(wowza_dc, simulator, frames_per_chunk=frames_per_chunk)
        edge = FastlyEdge(fastly_dc, simulator, transfer_model, local.get("edge"))
        broadcast_id = index + 1
        edge.attach_broadcast(broadcast_id, wowza)

        uplink_rng = local.get("uplink")
        propagation = transfer_model.latency.propagation_s(
            broadcaster_location, wowza_dc.location
        )
        uplink = LastMileLink.mobile_uplink(
            uplink_rng,
            horizon_s=duration_s + 30.0,
            outage_rate_per_s=OUTAGE_RATE_PER_S,
            outage_mean_s=OUTAGE_MEAN_S,
        )
        uplink.base_delay_s += propagation

        broadcaster = BroadcasterClient(
            broadcast_id=broadcast_id,
            token=f"bcast-{broadcast_id}",
            simulator=simulator,
            wowza=wowza,
            uplink=uplink,
            frame_interval_s=self.profile.frame_interval_s,
        )
        crawler = DelayCrawler(
            broadcast_id=broadcast_id, simulator=simulator, stop_after=duration_s + 30.0
        )
        broadcaster.start(start_time=0.0, duration_s=duration_s)
        crawler.attach_rtmp(wowza)
        crawler.attach_hls(edge)

        simulator.run(until=duration_s + 60.0)

        record = wowza.record_for(broadcast_id)
        return BroadcastTrace(
            broadcast_id=broadcast_id,
            duration_s=duration_s,
            frame_arrivals=crawler.frame_arrival_trace(),
            chunk_ready=np.array(record.chunk_arrival_times()),
            chunk_availability=crawler.chunk_availability_trace(),
            chunk_duration_s=chunk_duration_s,
            frame_interval_s=self.profile.frame_interval_s,
        )


def rtmp_viewer_traces(traces: list[BroadcastTrace]) -> list[np.ndarray]:
    """Frame-arrival traces driving the Figure 16 playback simulation.

    Per §6, the RTMP viewer path is simulated directly from the
    frame-arrival sequence at the Wowza server (last-mile variance is
    assumed small and stable).
    """
    return [trace.frame_arrivals for trace in traces]


def hls_viewer_traces(
    traces: list[BroadcastTrace], rng: np.random.Generator
) -> list[np.ndarray]:
    """Chunk pickup traces driving the Figure 17 playback simulation.

    Per §6, each HLS viewer polls every ``HLS_VIEWER_POLL_INTERVAL_S``
    (2.8 s) with a random phase; a chunk is picked up at the first poll
    after it becomes available at the POP.
    """
    pickups = []
    for trace in traces:
        if trace.chunk_count == 0:
            continue
        phase = float(trace.chunk_availability[0]) - float(
            rng.uniform(0.0, HLS_VIEWER_POLL_INTERVAL_S)
        )
        pickups.append(
            poll_pickup_times(trace.chunk_availability, HLS_VIEWER_POLL_INTERVAL_S, phase)
        )
    return pickups
