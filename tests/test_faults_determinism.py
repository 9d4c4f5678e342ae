"""Determinism contracts for the fault layer.

Two guarantees are under test:

* the same (seed, plan) pair yields byte-identical runs — including every
  metric in the registry snapshot, and
* the fault machinery is invisible when dormant: arming an empty plan (or
  configuring resilience mechanisms that never fire) reproduces the plain
  seed path exactly, chunk for chunk.
"""

from __future__ import annotations

import dataclasses

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.experiments.registry import ExperimentResult
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient
from repro.crawler.global_list import GlobalListCrawler
from repro.faults import FaultInjector, FaultPlan
from repro.faults.scenario import run_chaos_pair, run_chaos_scenario
from repro.geo.datacenters import WOWZA_DATACENTERS
from repro.obs.metrics import MetricsRegistry
from repro.service import LivestreamService
from repro.simulation import CircuitBreaker, RetryPolicy
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams


def _mini_run(arm_injector: bool = False, resilient_config: bool = False):
    """A one-broadcast, one-viewer run; returns its domain outputs."""
    streams = RandomStreams(13)
    simulator = Simulator()
    service = LivestreamService()
    service.users.register_many(50)
    wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25)
    pop = CdnAssignment().ranked_fastly_for_viewer(
        wowza.datacenter.location, count=1
    )[0]
    edge = FastlyEdge(
        pop, simulator, TransferModel(), streams.get("edge"),
        breaker_factory=CircuitBreaker if resilient_config else None,
    )
    broadcast = service.start_broadcast(1, time=0.0)
    bid = broadcast.broadcast_id
    edge.attach_broadcast(bid, wowza)
    uplink = LastMileLink.mobile_uplink(streams.get("uplink"), horizon_s=60.0)
    client = BroadcasterClient(
        broadcast_id=bid, token="tok", simulator=simulator,
        wowza=wowza, uplink=uplink,
    )
    client.start(start_time=0.0, duration_s=20.0)
    viewer = HlsViewerClient(
        viewer_id=9, broadcast_id=bid, simulator=simulator, edge=edge,
        downlink=LastMileLink.stable_wifi(streams.get("hls")),
        stop_after=40.0,
        retry_policy=(
            RetryPolicy(attempt_timeout_s=10.0, rng=streams.get("retry"))
            if resilient_config
            else None
        ),
        failover_edges=(edge,) if resilient_config else (),
    )
    viewer.start_polling(first_poll_at=1.0)
    crawler = GlobalListCrawler(
        service, simulator, streams.get("crawler"),
        n_accounts=2, account_refresh_s=5.0,
    )
    crawler.start()
    if arm_injector:
        injector = FaultInjector(simulator)
        injector.register_edge(edge.datacenter.name, edge)
        injector.register_origin(wowza.datacenter.name, wowza)
        injector.arm(FaultPlan())  # armed but empty: must change nothing
    simulator.schedule_at(25.0, lambda: service.end_broadcast(bid, simulator.now))
    simulator.run(until=60.0)
    return (
        dict(viewer.chunk_arrivals),
        [float(x) for x in crawler.discovery_latencies()],
    )


class TestDormantMachineryIsInvisible:
    def test_empty_plan_injector_reproduces_seed_path(self):
        baseline = _mini_run(arm_injector=False)
        with_injector = _mini_run(arm_injector=True)
        assert with_injector == baseline

    def test_idle_resilience_config_reproduces_seed_path(self):
        # Retry policy, failover ring, and breaker are all armed but never
        # triggered (no faults): the run must be byte-identical anyway.
        baseline = _mini_run()
        hardened = _mini_run(resilient_config=True)
        assert hardened == baseline

    def test_zero_intensity_pair_identical(self):
        naive, resilient = run_chaos_pair(seed=11, fault_intensity=0.0)
        skip = {"resilient"}
        naive_fields = {
            k: v for k, v in dataclasses.asdict(naive).items() if k not in skip
        }
        resilient_fields = {
            k: v for k, v in dataclasses.asdict(resilient).items() if k not in skip
        }
        assert naive_fields == resilient_fields
        assert naive.faults_injected == 0
        assert naive.availability == 1.0
        assert naive.delivery_ratio == 1.0


class TestSeededRunsAreReproducible:
    def test_same_seed_and_plan_identical_registry_snapshots(self):
        snapshots = []
        for _ in range(2):
            metrics = MetricsRegistry()
            run_chaos_scenario(
                seed=11, fault_intensity=1.0, resilient=True, metrics=metrics
            )
            snapshots.append(metrics.as_json())
        assert snapshots[0] == snapshots[1]

    def test_same_seed_identical_reports_naive(self):
        report_a = run_chaos_scenario(seed=11, fault_intensity=1.0, resilient=False)
        report_b = run_chaos_scenario(seed=11, fault_intensity=1.0, resilient=False)
        assert report_a == report_b

    def test_different_seeds_differ(self):
        report_a = run_chaos_scenario(seed=11, fault_intensity=1.0, resilient=True)
        report_b = run_chaos_scenario(seed=12, fault_intensity=1.0, resilient=True)
        assert report_a != report_b


#: ``fingerprint`` of the registry a resilient chaos run fills at seed 7,
#: full intensity (the ``repro chaos`` and ``faultsweep`` reports do not
#: show it): "data" is the snapshot, "text" its JSON rendering.
CHAOS_METRICS_DIGESTS = {
    "data": "33883f010712bd6ca08725507db6e6cc7749452dddb03efcee832fcf48505172",
    "text": "c4118cdc3d16e89338ece522c78da4b852c59a86433ba3b975111e78e1d59b9d",
}


class TestWholeOutputPin:
    def test_chaos_metrics_pinned(self, golden):
        """Checked as GOLDEN.json checks an experiment: both digests on the
        recorded numpy version, the text alone (with a warning) on another."""
        registry = MetricsRegistry()
        run_chaos_scenario(seed=7, fault_intensity=1.0, resilient=True, metrics=registry)
        result = ExperimentResult(
            "chaos-metrics", "resilient chaos run, registry snapshot",
            registry.snapshot(), registry.as_json(),
        )
        recorded = {
            "numpy": golden.load_golden()["numpy"],
            "experiments": {"chaos-metrics": CHAOS_METRICS_DIGESTS},
        }
        assert golden.check_experiments(recorded, {"chaos-metrics": result}) == []
