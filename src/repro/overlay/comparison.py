"""Head-to-head comparison of the three delivery architectures (§8).

Runs the same broadcast and the same geographically distributed audience
through:

* **RTMP direct push** — the origin keeps one connection per viewer and
  pushes every frame over the WAN (Periscope's interactive tier),
* **HLS chunked polling** — viewers poll their nearest edge POP
  (Periscope's scalable tier),
* **overlay multicast** — the §8 proposal: frames pushed down a
  geographic forwarding hierarchy; per-viewer state only at the leaves.

All three report network delay (capture to viewer arrival, buffering
excluded) and the server-side cost metrics that motivated the paper's
discussion: origin connection state, origin egress copies per frame, and
the worst per-server fan-out anywhere in the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import sample_user_location
from repro.overlay.session import OverlayMulticastSession
from repro.overlay.tree import build_geographic_tree
from repro.protocols.frames import VideoFrame
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams


@dataclass(frozen=True)
class ArchitectureResult:
    """One architecture's outcome on the shared scenario."""

    name: str
    mean_delay_s: float
    p90_delay_s: float
    origin_state: int  # connections held by the origin server
    origin_egress_copies: int  # frame copies leaving the origin
    max_server_state: int  # worst fan-out at any single server

    def as_row(self) -> dict[str, float]:
        return {
            "mean_delay_s": round(self.mean_delay_s, 3),
            "p90_delay_s": round(self.p90_delay_s, 3),
            "origin_state": self.origin_state,
            "origin_egress": self.origin_egress_copies,
            "max_server_state": self.max_server_state,
        }


class _OverlayIngestBridge:
    """RtmpSubscriber feeding ingested frames into the overlay root.

    The session draws hop latencies from one shared rng in event order, so
    each frame still enters the root as its own event, at its arrival.
    """

    def __init__(self, session: OverlayMulticastSession) -> None:
        self._session = session

    def push_frames(
        self,
        broadcast_id: int,
        sequences: np.ndarray,
        captures: np.ndarray,
        pushed_at: np.ndarray,
    ) -> None:
        simulator = self._session.simulator
        for sequence, capture, arrival in zip(
            sequences.tolist(), captures.tolist(), pushed_at.tolist()
        ):
            frame = VideoFrame(sequence=sequence, capture_time=capture)
            simulator.schedule_at(
                arrival,
                partial(self._session.publish_frame, frame),
                label=f"publish:{broadcast_id}:{sequence}",
            )


def compare_architectures(
    n_viewers: int = 150,
    duration_s: float = 20.0,
    seed: int = 8,
    broadcaster_location: GeoPoint | None = None,
) -> dict[str, ArchitectureResult]:
    """Run the shared scenario through all three architectures."""
    if n_viewers <= 0:
        raise ValueError("need at least one viewer")
    streams = RandomStreams(seed)
    placement = streams.get("placement")
    viewer_locations = [sample_user_location(placement) for _ in range(n_viewers)]
    origin_location = broadcaster_location or GeoPoint(34.05, -118.24)

    assignment = CdnAssignment()
    transfer = TransferModel()
    wowza_dc = assignment.wowza_for_broadcaster(origin_location)

    results: dict[str, ArchitectureResult] = {}

    # ---- RTMP direct push -------------------------------------------------
    simulator = Simulator()
    wowza = WowzaIngest(wowza_dc, simulator)
    broadcaster = BroadcasterClient(
        broadcast_id=1, token="cmp", simulator=simulator, wowza=wowza,
        uplink=LastMileLink.stable_wifi(streams.get("rtmp/uplink")),
    )
    broadcaster.start(start_time=0.0, duration_s=duration_s)
    rtmp_viewers = []
    for index, location in enumerate(viewer_locations):
        propagation = transfer.latency.propagation_s(wowza_dc.location, location)
        downlink = LastMileLink(
            rng=streams.get(f"rtmp/down/{index}"),
            base_delay_s=0.03 + propagation,
            jitter_sigma=0.15,
        )
        viewer = RtmpViewerClient(
            viewer_id=index, broadcast_id=1, simulator=simulator, downlink=downlink
        )
        viewer.attach(wowza)
        rtmp_viewers.append(viewer)
    simulator.run(until=duration_s + 30.0)
    delays = np.concatenate([v.end_to_end_delays() for v in rtmp_viewers])
    results["rtmp"] = ArchitectureResult(
        name="rtmp",
        mean_delay_s=float(delays.mean()),
        p90_delay_s=float(np.percentile(delays, 90)),
        origin_state=n_viewers,
        origin_egress_copies=n_viewers,
        max_server_state=n_viewers,
    )

    # ---- HLS chunked polling -----------------------------------------------
    simulator = Simulator()
    wowza = WowzaIngest(wowza_dc, simulator)
    broadcaster = BroadcasterClient(
        broadcast_id=1, token="cmp", simulator=simulator, wowza=wowza,
        uplink=LastMileLink.stable_wifi(streams.get("hls/uplink")),
    )
    edges: dict[str, FastlyEdge] = {}
    pop_viewer_counts: dict[str, int] = {}
    hls_viewers = []
    poll_rng = streams.get("hls/poll")
    for index, location in enumerate(viewer_locations):
        pop = assignment.fastly_for_viewer(location)
        if pop.name not in edges:
            edge = FastlyEdge(pop, simulator, transfer, streams.get(f"hls/edge/{pop.name}"))
            edge.attach_broadcast(1, wowza)
            edges[pop.name] = edge
        pop_viewer_counts[pop.name] = pop_viewer_counts.get(pop.name, 0) + 1
        propagation = transfer.latency.propagation_s(pop.location, location)
        downlink = LastMileLink(
            rng=streams.get(f"hls/down/{index}"),
            base_delay_s=0.03 + propagation,
            jitter_sigma=0.15,
        )
        viewer = HlsViewerClient(
            viewer_id=index, broadcast_id=1, simulator=simulator,
            edge=edges[pop.name], downlink=downlink,
            poll_interval_s=float(poll_rng.uniform(2.0, 2.8)),
            stop_after=duration_s + 20.0,
        )
        viewer.start_polling(first_poll_at=float(poll_rng.uniform(0.0, 2.8)))
        hls_viewers.append(viewer)
    # The production co-located crawler keeps transfers prompt.
    crawler = DelayCrawler(broadcast_id=1, simulator=simulator, stop_after=duration_s + 20.0)
    colocated = assignment.fastly_for_viewer(wowza_dc.location)
    if colocated.name not in edges:
        edge = FastlyEdge(colocated, simulator, transfer, streams.get("hls/edge/co"))
        edge.attach_broadcast(1, wowza)
        edges[colocated.name] = edge
    crawler.attach_hls(edges[colocated.name])
    broadcaster.start(start_time=0.0, duration_s=duration_s)
    simulator.run(until=duration_s + 40.0)
    delays = np.concatenate(
        [v.end_to_end_delays() for v in hls_viewers if v.chunk_arrivals]
    )
    results["hls"] = ArchitectureResult(
        name="hls",
        mean_delay_s=float(delays.mean()),
        p90_delay_s=float(np.percentile(delays, 90)),
        origin_state=len(edges),  # one origin-pull relationship per POP
        origin_egress_copies=len(edges),
        max_server_state=max(pop_viewer_counts.values()),
    )

    # ---- Overlay multicast ----------------------------------------------------
    simulator = Simulator()
    wowza = WowzaIngest(wowza_dc, simulator)
    broadcaster = BroadcasterClient(
        broadcast_id=1, token="cmp", simulator=simulator, wowza=wowza,
        uplink=LastMileLink.stable_wifi(streams.get("overlay/uplink")),
    )
    tree = build_geographic_tree(wowza_dc)
    session = OverlayMulticastSession(
        tree=tree, simulator=simulator, latency=transfer.latency,
        rng=streams.get("overlay/net"),
    )
    for index, location in enumerate(viewer_locations):
        downlink = LastMileLink(
            rng=streams.get(f"overlay/down/{index}"),
            base_delay_s=0.03,
            jitter_sigma=0.15,
        )
        session.join(index, location, downlink)
    # start() registers the broadcast at the ingest server; the bridge then
    # subscribes so every ingested frame enters the overlay root.
    broadcaster.start(start_time=0.0, duration_s=duration_s)
    wowza.subscribe_rtmp(1, _OverlayIngestBridge(session))
    simulator.run(until=duration_s + 30.0)
    stats = session.stats()
    results["overlay"] = ArchitectureResult(
        name="overlay",
        mean_delay_s=stats.mean_frame_delay_s,
        p90_delay_s=stats.p90_frame_delay_s,
        origin_state=stats.root_state,
        origin_egress_copies=stats.origin_egress_copies,
        max_server_state=stats.max_server_state,
    )
    return results
