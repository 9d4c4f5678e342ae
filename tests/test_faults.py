"""Unit tests for the fault-injection layer: plans, injector, resilience."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultWindow
from repro.obs.metrics import MetricsRegistry
from repro.simulation import CircuitBreaker, RetryPolicy
from repro.simulation.engine import Simulator


class TestFaultWindow:
    def test_basic_window(self):
        window = FaultWindow(FaultKind.EDGE_DOWN, 10.0, 5.0)
        assert window.end_s == 15.0
        assert window.active_at(10.0)
        assert window.active_at(14.999)
        assert not window.active_at(15.0)  # half-open
        assert not window.active_at(9.999)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.EDGE_DOWN, -1.0, 5.0)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.EDGE_DOWN, 0.0, 0.0)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.EDGE_DOWN, 0.0, 5.0, intensity=-0.1)
        with pytest.raises(ValueError):
            FaultWindow(FaultKind.SERVICE_BROWNOUT, 0.0, 5.0, intensity=1.5)


class TestFaultPlan:
    def test_windows_sorted_by_start(self):
        plan = FaultPlan((
            FaultWindow(FaultKind.EDGE_DOWN, 50.0, 5.0),
            FaultWindow(FaultKind.ORIGIN_DOWN, 10.0, 5.0),
        ))
        assert [w.start_s for w in plan] == [10.0, 50.0]
        assert len(plan) == 2
        assert plan.horizon_s == 55.0
        assert plan.total_fault_time_s == 10.0

    def test_active_at_and_for_kind(self):
        down = FaultWindow(FaultKind.EDGE_DOWN, 10.0, 5.0)
        slow = FaultWindow(FaultKind.QUEUE_OVERLOAD, 12.0, 5.0, intensity=3.0)
        plan = FaultPlan((down, slow))
        assert plan.active_at(11.0) == [down]
        assert set(plan.active_at(13.0)) == {down, slow}
        assert plan.for_kind(FaultKind.QUEUE_OVERLOAD) == [slow]

    def test_sample_deterministic(self):
        plan_a = FaultPlan.sample(np.random.default_rng(3), horizon_s=300.0)
        plan_b = FaultPlan.sample(np.random.default_rng(3), horizon_s=300.0)
        assert plan_a == plan_b
        assert len(plan_a) > 0

    def test_sample_zero_intensity_is_empty_and_draws_nothing(self):
        rng = np.random.default_rng(3)
        plan = FaultPlan.sample(rng, horizon_s=300.0, intensity=0.0)
        assert len(plan) == 0
        # No randomness consumed: the generator state is untouched.
        assert rng.random() == np.random.default_rng(3).random()

    def test_sample_respects_kind_filter(self):
        plan = FaultPlan.sample(
            np.random.default_rng(3),
            horizon_s=600.0,
            kinds=(FaultKind.EDGE_DOWN,),
            rate_per_min=2.0,
        )
        assert len(plan) > 0
        assert all(w.kind is FaultKind.EDGE_DOWN for w in plan)

    def test_sample_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FaultPlan.sample(rng, horizon_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan.sample(rng, horizon_s=10.0, intensity=-1.0)


class _FakeEdge:
    def __init__(self):
        self.fault_down = False
        self.fault_delay_factor = 1.0


class _FakeOrigin:
    def __init__(self):
        self.origin_available = True
        self.fault_delay_factor = 1.0


class _FakeQueue:
    def __init__(self):
        self.fault_slowdown = 1.0


class _FakeService:
    def __init__(self):
        self.brownout_rate = 0.0

    def set_brownout(self, rate, rng):
        self.brownout_rate = rate

    def clear_brownout(self):
        self.brownout_rate = 0.0


class _FakeBucket:
    def __init__(self):
        self.fault_refill_factor = 1.0
        self.drained = 0

    def drain(self):
        self.drained += 1


class TestFaultInjector:
    def test_edge_down_window_applies_and_clears(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        edge = _FakeEdge()
        injector.register_edge("sea", edge)
        injector.arm(FaultPlan((FaultWindow(FaultKind.EDGE_DOWN, 10.0, 5.0, "sea"),)))

        simulator.run(until=9.0)
        assert not edge.fault_down
        simulator.run(until=12.0)
        assert edge.fault_down
        assert injector.active_count == 1
        simulator.run(until=20.0)
        assert not edge.fault_down
        assert injector.active_count == 0

    def test_unknown_target_fails_at_arm_time(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        injector.register_edge("sea", _FakeEdge())
        with pytest.raises(ValueError):
            injector.arm(
                FaultPlan((FaultWindow(FaultKind.EDGE_DOWN, 0.0, 1.0, "nope"),))
            )
        with pytest.raises(ValueError):
            # No origins registered at all: even "*" must fail up front.
            injector.arm(FaultPlan((FaultWindow(FaultKind.ORIGIN_DOWN, 0.0, 1.0),)))

    def test_wildcard_target_hits_every_component(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        edges = {"sea": _FakeEdge(), "lhr": _FakeEdge()}
        for name, edge in edges.items():
            injector.register_edge(name, edge)
        injector.arm(FaultPlan((FaultWindow(FaultKind.EDGE_DOWN, 1.0, 2.0, "*"),)))
        simulator.run(until=2.0)
        assert all(edge.fault_down for edge in edges.values())
        simulator.run(until=4.0)
        assert not any(edge.fault_down for edge in edges.values())

    def test_overlapping_degradations_compose_as_max(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        queue = _FakeQueue()
        injector.register_queue("q", queue)
        injector.arm(FaultPlan((
            FaultWindow(FaultKind.QUEUE_OVERLOAD, 0.0, 10.0, "q", intensity=2.0),
            FaultWindow(FaultKind.QUEUE_OVERLOAD, 2.0, 4.0, "q", intensity=5.0),
        )))
        simulator.run(until=1.0)
        assert queue.fault_slowdown == 2.0
        simulator.run(until=3.0)
        assert queue.fault_slowdown == 5.0   # max of the overlap
        simulator.run(until=7.0)
        assert queue.fault_slowdown == 2.0   # inner window cleared
        simulator.run(until=11.0)
        assert queue.fault_slowdown == 1.0   # identity restored exactly

    def test_overlapping_downs_clear_only_when_last_ends(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        edge = _FakeEdge()
        injector.register_edge("sea", edge)
        injector.arm(FaultPlan((
            FaultWindow(FaultKind.EDGE_DOWN, 0.0, 6.0, "sea"),
            FaultWindow(FaultKind.EDGE_DOWN, 4.0, 6.0, "sea"),
        )))
        simulator.run(until=7.0)
        assert edge.fault_down   # first cleared, second still active
        simulator.run(until=11.0)
        assert not edge.fault_down

    def test_brownout_and_starvation_surfaces(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        service, bucket = _FakeService(), _FakeBucket()
        injector.register_service("platform", service, np.random.default_rng(0))
        injector.register_bucket("quota", bucket)
        injector.arm(FaultPlan((
            FaultWindow(FaultKind.SERVICE_BROWNOUT, 1.0, 4.0, "platform", intensity=0.8),
            FaultWindow(FaultKind.CRAWLER_STARVATION, 1.0, 4.0, "quota", intensity=0.2),
        )))
        simulator.run(until=2.0)
        assert service.brownout_rate == 0.8
        assert bucket.fault_refill_factor == 0.2
        assert bucket.drained == 1   # quota revoked on activation
        simulator.run(until=6.0)
        assert service.brownout_rate == 0.0
        assert bucket.fault_refill_factor == 1.0

    def test_availability_tracks_union_downtime(self):
        simulator = Simulator()
        injector = FaultInjector(simulator)
        injector.register_edge("sea", _FakeEdge())
        injector.register_origin("wow", _FakeOrigin())
        injector.arm(FaultPlan((
            # Overlapping windows: union downtime is [10, 20) = 10 s.
            FaultWindow(FaultKind.EDGE_DOWN, 10.0, 8.0, "sea"),
            FaultWindow(FaultKind.ORIGIN_DOWN, 14.0, 6.0, "wow"),
        )))
        simulator.run(until=100.0)
        assert injector.downtime_s == pytest.approx(10.0)
        assert injector.availability() == pytest.approx(0.9)

    def test_metrics_reported(self):
        metrics = MetricsRegistry()
        simulator = Simulator()
        metrics.bind_simulator(simulator)
        injector = FaultInjector(simulator, metrics=metrics)
        injector.register_edge("sea", _FakeEdge())
        injector.arm(FaultPlan((FaultWindow(FaultKind.EDGE_DOWN, 1.0, 2.0, "sea"),)))
        simulator.run(until=10.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["faults.activated"]["value"] == 1
        assert snapshot["counters"]["faults.cleared"]["value"] == 1
        assert snapshot["counters"]["faults.edge_down.activations"]["value"] == 1
        assert snapshot["gauges"]["faults.active"]["value"] == 0
        assert snapshot["gauges"]["faults.system_availability"]["value"] == pytest.approx(0.8)

    def test_duplicate_registration_rejected(self):
        injector = FaultInjector(Simulator())
        injector.register_edge("sea", _FakeEdge())
        with pytest.raises(ValueError):
            injector.register_edge("sea", _FakeEdge())


class TestRetryPolicy:
    def test_default_delay_sequence(self):
        policy = RetryPolicy()  # 4 attempts, base 0.5, backoff 2, no rng
        delays = [policy.next_delay(attempt, elapsed_s=0.0) for attempt in range(4)]
        assert delays == [0.5, 1.0, 2.0, None]

    def test_backoff_capped_at_max_delay(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, max_delay_s=4.0)
        assert policy.backoff_delay_s(0) == 1.0
        assert policy.backoff_delay_s(5) == 4.0

    def test_hint_floors_the_delay(self):
        policy = RetryPolicy()
        assert policy.next_delay(0, elapsed_s=0.0, hint=3.0) == 3.0
        assert policy.next_delay(0, elapsed_s=0.0, hint=0.1) == 0.5

    def test_deadline_cuts_off_sequence(self):
        policy = RetryPolicy(deadline_s=1.2)
        assert policy.next_delay(0, elapsed_s=0.0) == 0.5
        assert policy.next_delay(1, elapsed_s=0.5) is None  # 0.5 + 1.0 > 1.2
        # A per-call deadline overrides the policy-wide one.
        assert policy.next_delay(1, elapsed_s=0.5, deadline_s=10.0) == 1.0

    def test_jitter_is_deterministic_and_bounded(self):
        delays_a = [
            RetryPolicy(rng=np.random.default_rng(5)).next_delay(0, 0.0)
            for _ in range(1)
        ]
        delays_b = [
            RetryPolicy(rng=np.random.default_rng(5)).next_delay(0, 0.0)
            for _ in range(1)
        ]
        assert delays_a == delays_b
        policy = RetryPolicy(rng=np.random.default_rng(5), jitter_frac=0.1)
        for attempt in range(3):
            delay = policy.next_delay(attempt, elapsed_s=0.0)
            base = policy.backoff_delay_s(attempt)
            assert 0.9 * base <= delay <= 1.1 * base
            assert delay != base  # jitter actually applied

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(jitter_frac=0.5)
        assert policy.next_delay(0, elapsed_s=0.0) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy.backoff_delay_s(RetryPolicy(), -1)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_probe(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5.0)
        assert breaker.allow_request(0.0)
        breaker.record_failure(1.0)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_request(2.0)      # still cooling down
        assert not breaker.allow_request(6.9)
        assert breaker.allow_request(7.0)          # the half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow_request(7.1)      # only one probe in flight
        breaker.record_success(7.5)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow_request(5.0)
        breaker.record_failure(5.5)                # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_request(9.0)      # cooldown restarted at 5.5
        assert breaker.allow_request(10.5)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_metrics(self):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=2.0, metrics=metrics)
        breaker.record_failure(0.0)
        assert not breaker.allow_request(1.0)
        assert breaker.allow_request(2.0)
        breaker.record_success(2.5)
        counters = metrics.snapshot()["counters"]
        assert counters["resilience.breaker.opened"]["value"] == 1
        assert counters["resilience.breaker.rejected"]["value"] == 1
        assert counters["resilience.breaker.probes"]["value"] == 1
        assert counters["resilience.breaker.closed"]["value"] == 1
        open_hist = metrics.snapshot()["histograms"]["resilience.breaker.open_s"]
        assert open_hist["count"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)
