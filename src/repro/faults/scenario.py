"""The chaos scenario: one system, one fault schedule, two postures.

``run_chaos_scenario`` drives the full stack — platform, Wowza ingest,
several Fastly POPs with a shared front-end queue, crawler, HLS viewers —
through a seeded fault schedule, either *naive* (no retries, no failover,
no breaker, no shedding: failures are simply tolerated) or *resilient*
(every mechanism in :mod:`repro.faults` armed).  Identical seeds give the
two postures identical broadcasts, identical viewers, and an identical
fault schedule, so their :class:`ChaosReport`\\ s are directly comparable;
``repro chaos`` and the ``faultsweep`` experiment print them side by side.

The fault schedule is a deterministic backbone (every sweep intensity
takes down the primary POP, browns out the platform while short-lived
broadcasts are on air, starves the crawler quota, and drops the origin)
plus Poisson-sampled degradation color from the ``faults`` random stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.queueing import ServerQueue
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient
from repro.crawler.global_list import GlobalListCrawler
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultWindow
from repro.geo.datacenters import WOWZA_DATACENTERS
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.service.errors import ServiceUnavailable
from repro.service.facade import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.rate_limit import TokenBucket
from repro.simulation.resilience import CircuitBreaker, RetryPolicy

#: Featured broadcasts, each with HLS viewers behind the Fastly POPs.
N_BROADCASTS = 3
VIEWERS_PER_BROADCAST = 4
#: Short-lived platform-only broadcasts timed against the brownout and
#: the crawler-quota starvation.
BACKGROUND_BROADCASTS = 12
BROADCAST_DURATION_S = 40.0
HORIZON_S = 240.0


@dataclass(frozen=True)
class ChaosReport:
    """Domain-level outcome of one chaos run (registry-independent)."""

    seed: int
    fault_intensity: float
    resilient: bool
    faults_injected: int
    availability: float  # fraction of the run with no fault active
    # Discovery (crawler) outcomes.
    coverage: float
    mean_discovery_latency_s: float
    queries_made: int
    queries_throttled: int
    queries_failed: int
    crawler_retries: int
    # Delivery (viewer) outcomes.
    chunks_expected: int  # produced chunks x HLS viewers of that broadcast
    chunks_delivered: int
    mean_e2e_delay_s: float
    p99_e2e_delay_s: float
    viewer_poll_failures: int
    viewer_retries: int
    viewer_failovers: int
    stale_served: int

    @property
    def delivery_ratio(self) -> float:
        """Delivered / expected chunk downloads across all HLS viewers."""
        if self.chunks_expected == 0:
            return 1.0
        return self.chunks_delivered / self.chunks_expected

    def dominates(self, other: "ChaosReport") -> bool:
        """Strictly better than ``other`` on coverage, delivery, and p99
        delay (the graceful-degradation acceptance criterion)."""
        return (
            self.coverage > other.coverage
            and self.delivery_ratio > other.delivery_ratio
            and self.p99_e2e_delay_s < other.p99_e2e_delay_s
        )


def build_fault_plan(
    rng: np.random.Generator,
    horizon_s: float,
    intensity: float,
    primary_edge: str,
    origin: str,
) -> FaultPlan:
    """The chaos schedule for one run: deterministic backbone + sampled color.

    ``intensity = 0`` yields the empty plan (and consumes no randomness);
    any positive intensity guarantees at least one fault of every backbone
    kind, with outage lengths and severities scaling with ``intensity``.
    """
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    if intensity == 0:
        return FaultPlan()
    backbone = (
        # The primary POP goes dark twice while broadcasts are on air.
        FaultWindow(FaultKind.EDGE_DOWN, 60.0, 8.0 + 16.0 * intensity, primary_edge),
        FaultWindow(FaultKind.EDGE_DOWN, 100.0, 6.0 + 10.0 * intensity, primary_edge),
        # The origin drops while the last broadcast is still serving.
        FaultWindow(FaultKind.ORIGIN_DOWN, 88.0, 5.0 + 8.0 * intensity, origin),
        # The platform browns out across the background-broadcast batch;
        # even a mild sweep point fails most un-retried calls, so lost
        # short-lived broadcasts separate the two crawler postures at
        # every intensity.
        FaultWindow(
            FaultKind.SERVICE_BROWNOUT,
            30.0,
            60.0 + 40.0 * intensity,
            "*",
            intensity=min(0.95, 0.8 + 0.1 * intensity),
        ),
        # The crawler quota is revoked mid-run.
        FaultWindow(
            FaultKind.CRAWLER_STARVATION,
            150.0,
            20.0 + 20.0 * intensity,
            "*",
            intensity=1.0 / (1.0 + 4.0 * intensity),
        ),
    )
    color = FaultPlan.sample(
        rng,
        horizon_s=horizon_s * 0.8,
        intensity=intensity,
        kinds=(FaultKind.EDGE_DEGRADED, FaultKind.QUEUE_OVERLOAD),
        rate_per_min=0.4,
        mean_duration_s=10.0,
    )
    return FaultPlan(backbone + color.windows)


def run_chaos_scenario(
    seed: int = 7,
    fault_intensity: float = 1.0,
    resilient: bool = True,
    metrics: MetricsRegistry = NULL_REGISTRY,
) -> ChaosReport:
    """One end-to-end run through the chaos schedule.

    ``resilient`` flips every mechanism at once: crawler retries (fresh
    data only), viewer retry + watchdog + edge failover, origin-pull
    circuit breakers, and platform load shedding.  Everything else —
    seeds, broadcasts, viewers, the fault schedule — is identical, which
    is what makes naive/resilient reports comparable.
    """
    if fault_intensity < 0:
        raise ValueError("fault intensity must be non-negative")
    streams = RandomStreams(seed)
    simulator = Simulator(metrics=metrics)

    service = LivestreamService(metrics=metrics, load_shedding=resilient)
    service.users.register_many(
        100 + N_BROADCASTS * VIEWERS_PER_BROADCAST + BACKGROUND_BROADCASTS
    )

    wowza = WowzaIngest(
        WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25, metrics=metrics
    )
    assignment = CdnAssignment()
    pops = assignment.ranked_fastly_for_viewer(wowza.datacenter.location, count=3)
    server_queue = ServerQueue(simulator, metrics=metrics)

    def breaker_factory() -> CircuitBreaker:
        return CircuitBreaker(failure_threshold=3, cooldown_s=15.0, metrics=metrics)

    edges = [
        FastlyEdge(
            pop,
            simulator,
            TransferModel(),
            streams.get(f"edge/{pop.name}"),
            metrics=metrics,
            queue=server_queue,
            breaker_factory=breaker_factory if resilient else None,
        )
        for pop in pops
    ]

    viewer_policy = (
        RetryPolicy(
            max_attempts=4,
            base_delay_s=0.5,
            backoff=2.0,
            max_delay_s=5.0,
            jitter_frac=0.1,
            attempt_timeout_s=10.0,
            rng=streams.get("retry/hls"),
        )
        if resilient
        else None
    )
    crawler_policy = (
        RetryPolicy(
            max_attempts=4,
            base_delay_s=0.3,
            backoff=2.0,
            max_delay_s=4.0,
            jitter_frac=0.1,
            rng=streams.get("retry/crawler"),
        )
        if resilient
        else None
    )

    engagement_rng = streams.get("engagement")
    hls_viewers: list[HlsViewerClient] = []
    featured_bids: list[int] = []

    for index in range(N_BROADCASTS):
        start = 10.0 + index * 20.0
        broadcaster_id = 1 + index

        def launch(broadcaster_id=broadcaster_id, slot=index):
            now = simulator.now
            broadcast = service.start_broadcast(broadcaster_id, time=now)
            bid = broadcast.broadcast_id
            featured_bids.append(bid)
            for edge in edges:  # failover candidates must know the broadcast
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
                viewer_id = 60 + slot * VIEWERS_PER_BROADCAST + viewer_offset
                # Engagement calls may land inside a brownout window; the
                # naive posture surfaces that as errors the launcher eats.
                try:
                    service.join(bid, viewer_id, time=now)
                    service.heart(bid, viewer_id, time=now)
                    service.comment(bid, viewer_id, time=now)
                except ServiceUnavailable:
                    pass
                viewer = HlsViewerClient(
                    viewer_id=viewer_id, broadcast_id=bid, simulator=simulator,
                    edge=edges[0],
                    downlink=LastMileLink.stable_wifi(streams.get(f"hls/{viewer_id}")),
                    stop_after=now + BROADCAST_DURATION_S + 30.0,
                    retry_policy=viewer_policy,
                    failover_edges=edges if resilient else (),
                    metrics=metrics,
                )
                hls_viewers.append(viewer)
                viewer.start_polling(
                    first_poll_at=now + float(engagement_rng.uniform(0.5, 2.0))
                )
            simulator.schedule(
                BROADCAST_DURATION_S + 5.0,
                lambda bid=bid: service.end_broadcast(bid, simulator.now),
                label="platform-end",
            )

        simulator.schedule_at(start, launch, label="platform-launch")

    # Background broadcasts: platform-only, short-lived, timed so the
    # brownout (and for the last few, the quota starvation) is the only
    # thing standing between the crawler and full coverage.
    for index in range(BACKGROUND_BROADCASTS):
        owner = 20 + index
        if index < BACKGROUND_BROADCASTS - 4:
            start = 40.0 + index * 6.0
        else:
            start = 152.0 + (index - (BACKGROUND_BROADCASTS - 4)) * 8.0
        lifetime = 8.0

        def bg_launch(owner=owner, lifetime=lifetime):
            broadcast = service.start_broadcast(owner, time=simulator.now)
            simulator.schedule(
                lifetime,
                lambda bid=broadcast.broadcast_id: service.end_broadcast(
                    bid, simulator.now
                ),
                label="bg-end",
            )

        simulator.schedule_at(start, bg_launch, label="bg-launch")

    bucket = TokenBucket(rate_per_s=2.0, capacity=4.0, metrics=metrics)
    crawler = GlobalListCrawler(
        service, simulator, streams.get("crawler"),
        n_accounts=4, account_refresh_s=5.0,
        rate_limit=bucket,
        retry_policy=crawler_policy,
        metrics=metrics,
    )
    crawler.start()

    injector = FaultInjector(simulator, metrics=metrics)
    for edge in edges:
        injector.register_edge(edge.datacenter.name, edge)
    injector.register_origin(wowza.datacenter.name, wowza)
    injector.register_queue("pop-frontend", server_queue)
    injector.register_service("platform", service.gate, streams.get("brownout"))
    injector.register_bucket("crawler-quota", bucket)
    plan = build_fault_plan(
        streams.get("faults"),
        horizon_s=HORIZON_S,
        intensity=fault_intensity,
        primary_edge=edges[0].datacenter.name,
        origin=wowza.datacenter.name,
    )
    injector.arm(plan)

    simulator.run(until=HORIZON_S)

    # -- fold the run into a domain-level report ------------------------
    produced = {
        bid: len(wowza.record_for(bid).chunk_ready) for bid in featured_bids
    }
    chunks_expected = sum(produced[v.broadcast_id] for v in hls_viewers)
    chunks_delivered = sum(len(v.chunk_arrivals) for v in hls_viewers)
    # Per-chunk delay, censored: a chunk the viewer never received counts
    # at the moment the viewer gave up (a lower bound on its true delay).
    # Without censoring, a client that silently drops every late chunk
    # would report a *better* p99 than one that recovers them.
    delay_list: list[float] = []
    for viewer in hls_viewers:
        record = wowza.record_for(viewer.broadcast_id)
        censor_at = min(viewer.stop_after, HORIZON_S)
        for index, chunk in record.chunks.items():
            if index in viewer.chunk_arrivals:
                delay_list.append(
                    viewer.chunk_arrivals[index] - chunk.first_capture_time
                )
            else:
                delay_list.append(max(0.0, censor_at - chunk.first_capture_time))
    delays = np.asarray(delay_list)
    latencies = crawler.discovery_latencies()
    stale = sum(edge.stale_served(bid) for edge in edges for bid in featured_bids)
    return ChaosReport(
        seed=seed,
        fault_intensity=fault_intensity,
        resilient=resilient,
        faults_injected=len(plan),
        availability=injector.availability(),
        coverage=crawler.coverage(),
        mean_discovery_latency_s=float(latencies.mean()) if len(latencies) else 0.0,
        queries_made=sum(a.queries_made for a in crawler.accounts),
        queries_throttled=sum(a.queries_throttled for a in crawler.accounts),
        queries_failed=sum(a.queries_failed for a in crawler.accounts),
        crawler_retries=sum(a.retries for a in crawler.accounts),
        chunks_expected=chunks_expected,
        chunks_delivered=chunks_delivered,
        mean_e2e_delay_s=float(delays.mean()) if len(delays) else 0.0,
        p99_e2e_delay_s=float(np.percentile(delays, 99)) if len(delays) else 0.0,
        viewer_poll_failures=sum(v.poll_failures for v in hls_viewers),
        viewer_retries=sum(v.retries for v in hls_viewers),
        viewer_failovers=sum(v.failovers for v in hls_viewers),
        stale_served=stale,
    )


def run_chaos_pair(
    seed: int = 7, fault_intensity: float = 1.0
) -> tuple[ChaosReport, ChaosReport]:
    """Run the naive and resilient postures through the same schedule."""
    naive = run_chaos_scenario(seed=seed, fault_intensity=fault_intensity, resilient=False)
    hardened = run_chaos_scenario(seed=seed, fault_intensity=fault_intensity, resilient=True)
    return naive, hardened
