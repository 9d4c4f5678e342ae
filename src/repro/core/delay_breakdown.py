"""End-to-end delay breakdown (§4.2–§5.1, Figures 10–11).

Reimplements the paper's controlled experiment: one broadcaster phone, one
RTMP viewer and one HLS viewer, all on stable WiFi, streaming through the
simulated CDN.  Every timestamp of Figure 10 is recorded and the
end-to-end delay decomposed:

* RTMP (per frame): upload (②−①), last-mile (③−②), client-buffering
  (④−③).  Paper total: ~1.4 s.
* HLS (per chunk): upload (⑥−⑤), chunking (⑦−⑥), Wowza2Fastly (⑪−⑦),
  viewer polling (⑭−⑪), last-mile (⑮−⑭), client-buffering (⑰−⑮).
  Paper total: ~11.7 s, dominated by buffering 6.9 s, chunking 3 s and
  polling 1.2 s.

The experiment is repeated (the paper used 10 repetitions) and components
averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.core.playback import PlaybackConfig, simulate_playback
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.coordinates import GeoPoint
from repro.platform.apps import AppProfile, PERISCOPE_PROFILE
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams

#: Component order used in Figure 11's stacked bars.
RTMP_COMPONENTS = ("upload", "last_mile", "buffering")
HLS_COMPONENTS = ("upload", "chunking", "wowza2fastly", "polling", "last_mile", "buffering")


@dataclass(frozen=True)
class DelayBreakdown:
    """Mean per-component delays (seconds) for one protocol."""

    protocol: str
    components: dict[str, float]

    @property
    def total_s(self) -> float:
        return math.fsum(self.components.values())

    def as_row(self) -> dict[str, float]:
        row = {name: round(value, 3) for name, value in self.components.items()}
        row["total"] = round(self.total_s, 3)
        return row


@dataclass
class ControlledExperiment:
    """One broadcaster + one RTMP viewer + one HLS viewer on stable WiFi."""

    seed: int = 7
    profile: AppProfile = field(default_factory=lambda: PERISCOPE_PROFILE)
    duration_s: float = 120.0
    broadcaster_location: GeoPoint = field(default_factory=lambda: GeoPoint(34.05, -118.24))
    viewer_location: GeoPoint = field(default_factory=lambda: GeoPoint(40.71, -74.01))
    transfer_model: TransferModel = field(default_factory=TransferModel)
    assignment: CdnAssignment = field(default_factory=CdnAssignment)

    def run_once(self, repetition: int = 0) -> tuple[DelayBreakdown, DelayBreakdown]:
        """One repetition; returns (RTMP breakdown, HLS breakdown)."""
        record, edge, rtmp_viewer, hls_viewer, broadcast_id = self._simulate(repetition)
        rtmp = self._rtmp_breakdown(record, rtmp_viewer)
        hls = self._hls_breakdown(record, edge, hls_viewer, broadcast_id)
        return rtmp, hls

    def _simulate(self, repetition: int):
        """Run one full controlled session; returns the raw artifacts."""
        streams = RandomStreams(self.seed).spawn(f"rep{repetition}")
        simulator = Simulator()

        wowza_dc = self.assignment.wowza_for_broadcaster(self.broadcaster_location)
        fastly_dc = self.assignment.fastly_for_viewer(self.viewer_location)

        wowza = WowzaIngest(
            wowza_dc, simulator, frames_per_chunk=self.profile.frames_per_chunk
        )
        edge = FastlyEdge(fastly_dc, simulator, self.transfer_model, streams.get("edge"))

        broadcast_id = 1
        edge.attach_broadcast(broadcast_id, wowza)

        # Upload link includes WAN propagation to the ingest DC plus the
        # phone's capture/encode pipeline latency.
        uplink = self._wan_link(
            streams, "uplink", self.broadcaster_location, wowza_dc.location,
            access_delay_s=0.16,
        )
        broadcaster = BroadcasterClient(
            broadcast_id=broadcast_id,
            token="controlled-token",
            simulator=simulator,
            wowza=wowza,
            uplink=uplink,
            frame_interval_s=self.profile.frame_interval_s,
        )

        rtmp_downlink = self._wan_link(
            streams, "rtmp-down", wowza_dc.location, self.viewer_location
        )
        rtmp_viewer = RtmpViewerClient(
            viewer_id=1001,
            broadcast_id=broadcast_id,
            simulator=simulator,
            downlink=rtmp_downlink,
        )

        hls_downlink = self._wan_link(
            streams, "hls-down", fastly_dc.location, self.viewer_location
        )
        poll_rng = streams.get("poll")
        low, high = self.profile.polling_interval_range_s
        hls_viewer = HlsViewerClient(
            viewer_id=1002,
            broadcast_id=broadcast_id,
            simulator=simulator,
            edge=edge,
            downlink=hls_downlink,
            poll_interval_s=float(poll_rng.uniform(low, high)),
            stop_after=self.duration_s + 30.0,
        )

        broadcaster.start(start_time=0.0, duration_s=self.duration_s)
        rtmp_viewer.attach(wowza)
        hls_viewer.start_polling(first_poll_at=float(poll_rng.uniform(0.0, hls_viewer.poll_interval_s)))

        # A co-located 0.1 s crawler keeps chunk transfers triggered
        # promptly, so availability (⑪) is measured tight — exactly the
        # paper's methodology (§4.3).  Without it, the single HLS viewer's
        # own polls would trigger every pull and the polling component
        # would be misattributed to Wowza2Fastly.
        crawler = DelayCrawler(
            broadcast_id=broadcast_id,
            simulator=simulator,
            stop_after=self.duration_s + 30.0,
        )
        crawler.attach_hls(edge)

        simulator.run(until=self.duration_s + 60.0)

        record = wowza.record_for(broadcast_id)
        return record, edge, rtmp_viewer, hls_viewer, broadcast_id

    def run_timeline(self, repetition: int = 0) -> dict[str, dict[str, float]]:
        """Figure 10's timestamp diagram from one live run.

        Returns ``{"rtmp": {...}, "hls": {...}}`` with every numbered
        timestamp of the paper's Figure 10, measured for a sample frame
        (RTMP path) and a sample chunk (HLS path) from mid-broadcast.
        """
        record, edge, rtmp_viewer, hls_viewer, broadcast_id = self._simulate(repetition)

        # RTMP path: a frame past the warm-up.
        frame_index = len(rtmp_viewer.frame_sequences) // 2
        frame_seq = int(rtmp_viewer.frame_sequences[frame_index])
        rtmp_playback = simulate_playback(
            rtmp_viewer.arrival_trace(),
            PlaybackConfig(
                prebuffer_s=self.profile.rtmp_prebuffer_s,
                unit_duration_s=self.profile.frame_interval_s,
            ),
        )
        rtmp_timeline = {
            "1_capture": float(record.frame_captures[frame_seq]),
            "2_wowza_arrival": float(record.frame_arrivals[frame_seq]),
            "3_viewer_arrival": float(rtmp_viewer.frame_arrivals[frame_index]),
            "4_played": float(rtmp_playback.play_times[frame_index]),
        }

        # HLS path: a chunk past the warm-up.
        availability = edge.availability_map(broadcast_id)
        indices = sorted(
            set(hls_viewer.chunk_arrivals) & set(availability) & set(record.chunk_ready)
        )
        chunk_index = indices[len(indices) // 2]
        chunk = record.chunks[chunk_index]
        hls_playback = simulate_playback(
            hls_viewer.arrival_trace(),
            PlaybackConfig(
                prebuffer_s=self.profile.hls_prebuffer_s,
                unit_duration_s=self.profile.chunk_duration_s,
            ),
        )
        chunk_position = sorted(hls_viewer.chunk_arrivals).index(chunk_index)
        hls_timeline = {
            "5_capture": chunk.first_capture_time,
            "6_wowza_arrival": float(record.frame_arrivals[chunk.first_sequence]),
            "7_chunk_ready": record.chunk_ready[chunk_index],
            "11_fastly_available": availability[chunk_index],
            "14_viewer_poll": hls_viewer.chunk_response_times[chunk_index],
            "15_viewer_arrival": hls_viewer.chunk_arrivals[chunk_index],
            "17_played": float(hls_playback.play_times[chunk_position]),
        }
        return {"rtmp": rtmp_timeline, "hls": hls_timeline}

    def run(self, repetitions: int = 10) -> tuple[DelayBreakdown, DelayBreakdown]:
        """Average component delays over ``repetitions`` runs (paper: 10)."""
        if repetitions <= 0:
            raise ValueError("need at least one repetition")
        rtmp_acc: dict[str, list[float]] = {name: [] for name in RTMP_COMPONENTS}
        hls_acc: dict[str, list[float]] = {name: [] for name in HLS_COMPONENTS}
        for repetition in range(repetitions):
            rtmp, hls = self.run_once(repetition)
            for name in RTMP_COMPONENTS:
                rtmp_acc[name].append(rtmp.components[name])
            for name in HLS_COMPONENTS:
                hls_acc[name].append(hls.components[name])
        return (
            DelayBreakdown(
                "rtmp", {name: float(np.mean(values)) for name, values in rtmp_acc.items()}
            ),
            DelayBreakdown(
                "hls", {name: float(np.mean(values)) for name, values in hls_acc.items()}
            ),
        )

    # -- internals -------------------------------------------------------

    def _wan_link(
        self,
        streams: RandomStreams,
        name: str,
        a: GeoPoint,
        b: GeoPoint,
        access_delay_s: float = 0.09,
    ) -> LastMileLink:
        """Stable WiFi access hop plus WAN propagation to the other end."""
        rng = streams.get(name)
        propagation = self.transfer_model.latency.propagation_s(a, b)
        return LastMileLink(
            rng=rng, base_delay_s=access_delay_s + propagation, jitter_sigma=0.15
        )

    def _rtmp_breakdown(
        self, record, viewer: RtmpViewerClient
    ) -> DelayBreakdown:
        sequences = viewer.frame_sequences
        uploads = record.frame_arrivals[sequences] - record.frame_captures[sequences]
        last_mile = viewer.frame_arrivals - record.frame_arrivals[sequences]
        playback = simulate_playback(
            viewer.arrival_trace(),
            PlaybackConfig(
                prebuffer_s=self.profile.rtmp_prebuffer_s,
                unit_duration_s=self.profile.frame_interval_s,
            ),
        )
        return DelayBreakdown(
            "rtmp",
            {
                "upload": float(uploads.mean()),
                "last_mile": float(last_mile.mean()),
                "buffering": playback.mean_buffering_delay_s,
            },
        )

    def _hls_breakdown(
        self,
        record,
        edge: FastlyEdge,
        viewer: HlsViewerClient,
        broadcast_id: int,
    ) -> DelayBreakdown:
        availability = edge.availability_map(broadcast_id)
        indices = sorted(
            set(viewer.chunk_arrivals) & set(availability) & set(record.chunk_ready)
        )
        if not indices:
            raise RuntimeError("HLS viewer received no chunks; broadcast too short?")
        uploads = []
        chunking = []
        w2f = []
        polling = []
        last_mile = []
        for index in indices:
            chunk = record.chunks[index]
            first_seq = chunk.first_sequence
            uploads.append(record.upload_delay_s(first_seq))
            chunking.append(record.chunk_ready[index] - record.frame_arrivals[first_seq])
            w2f.append(availability[index] - record.chunk_ready[index])
            polling.append(viewer.chunk_response_times[index] - availability[index])
            last_mile.append(viewer.chunk_arrivals[index] - viewer.chunk_response_times[index])
        playback = simulate_playback(
            viewer.arrival_trace(),
            PlaybackConfig(
                prebuffer_s=self.profile.hls_prebuffer_s,
                unit_duration_s=self.profile.chunk_duration_s,
            ),
        )
        return DelayBreakdown(
            "hls",
            {
                "upload": float(np.mean(uploads)),
                "chunking": float(np.mean(chunking)),
                "wowza2fastly": float(np.mean(w2f)),
                "polling": float(np.mean(polling)),
                "last_mile": float(np.mean(last_mile)),
                "buffering": playback.mean_buffering_delay_s,
            },
        )
