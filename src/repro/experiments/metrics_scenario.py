"""A small, fully instrumented end-to-end scenario.

Drives every instrumented subsystem — engine, CDN (Wowza ingest + Fastly
edge + server queue), platform service, crawler, and viewer clients —
through one registry, so ``repro metrics`` (and the obs tests) can show a
live snapshot with counters from the whole stack.  Deliberately tiny:
a few broadcasts, a handful of viewers, a ~2-minute horizon.
"""

from __future__ import annotations

from repro.cdn.fastly import FastlyEdge
from repro.cdn.queueing import ServerQueue
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.crawler.global_list import GlobalListCrawler
from repro.geo.datacenters import WOWZA_DATACENTERS, colocated_fastly
from repro.obs.metrics import MetricsRegistry
from repro.service.facade import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.rate_limit import TokenBucket

#: Broadcasts launched 20 s apart, each with half RTMP, half HLS viewers.
N_BROADCASTS = 3
VIEWERS_PER_BROADCAST = 4
BROADCAST_DURATION_S = 30.0
HORIZON_S = 150.0


def run_metrics_scenario(seed: int = 7) -> MetricsRegistry:
    """Run the instrumented micro-scenario; returns the populated registry."""
    streams = RandomStreams(seed)
    registry = MetricsRegistry()
    simulator = Simulator(metrics=registry)

    service = LivestreamService(metrics=registry)
    service.users.register_many(50 + N_BROADCASTS * VIEWERS_PER_BROADCAST)

    wowza = WowzaIngest(
        WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25, metrics=registry
    )
    edge = FastlyEdge(
        colocated_fastly(wowza.datacenter), simulator, TransferModel(), streams.get("edge"),
        metrics=registry,
    )
    server_queue = ServerQueue(simulator, metrics=registry)

    engagement_rng = streams.get("engagement")
    for index in range(N_BROADCASTS):
        start = index * 20.0
        broadcaster_id = 1 + index

        def launch(broadcaster_id=broadcaster_id, slot=index):
            now = simulator.now
            broadcast = service.start_broadcast(broadcaster_id, time=now)
            bid = broadcast.broadcast_id
            edge.attach_broadcast(bid, wowza)
            uplink = LastMileLink.mobile_uplink(
                streams.get(f"uplink/{slot}"), horizon_s=HORIZON_S
            )
            client = BroadcasterClient(
                broadcast_id=bid, token=f"tok-{bid}", simulator=simulator,
                wowza=wowza, uplink=uplink,
            )
            client.start(start_time=now, duration_s=BROADCAST_DURATION_S)
            for viewer_offset in range(VIEWERS_PER_BROADCAST):
                viewer_id = 40 + slot * VIEWERS_PER_BROADCAST + viewer_offset
                service.join(bid, viewer_id, time=now)
                service.heart(bid, viewer_id, time=now)
                service.comment(bid, viewer_id, time=now)
                server_queue.serve_poll()
                if viewer_offset % 2 == 0:
                    rtmp = RtmpViewerClient(
                        viewer_id=viewer_id, broadcast_id=bid, simulator=simulator,
                        downlink=LastMileLink.stable_wifi(streams.get(f"rtmp/{viewer_id}")),
                        metrics=registry,
                    )
                    rtmp.attach(wowza)
                else:
                    hls = HlsViewerClient(
                        viewer_id=viewer_id, broadcast_id=bid, simulator=simulator,
                        edge=edge,
                        downlink=LastMileLink.stable_wifi(streams.get(f"hls/{viewer_id}")),
                        stop_after=now + BROADCAST_DURATION_S + 15.0,
                        metrics=registry,
                    )
                    hls.start_polling(first_poll_at=now + float(
                        engagement_rng.uniform(0.5, 2.0)
                    ))
            simulator.schedule(
                BROADCAST_DURATION_S + 5.0,
                lambda bid=bid: service.end_broadcast(bid, simulator.now),
                label="platform-end",
            )

        simulator.schedule_at(start, launch, label="platform-launch")

    crawler = GlobalListCrawler(
        service, simulator, streams.get("crawler"),
        n_accounts=4, account_refresh_s=5.0,
        rate_limit=TokenBucket(rate_per_s=2.0, capacity=4.0, metrics=registry),
        metrics=registry,
    )
    crawler.start()
    simulator.run(until=HORIZON_S)
    return registry
