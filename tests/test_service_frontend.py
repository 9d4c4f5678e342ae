"""Tests for the event-loop frontend tier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.platform.apps import PERISCOPE_PROFILE
from repro.platform.users import UserRegistry
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    ApiClassLimit,
)
from repro.service import errors
from repro.service.frontend import (
    CACHE_HIT_TIME_S,
    CONCURRENCY,
    SERVICE_TIMES_S,
    ServiceFrontend,
)
from repro.service.services import BroadcastService, FaultGate, ListService
from repro.service.store import BroadcastStore, ListCache
from repro.simulation.engine import Simulator


def build_stack(admission=None):
    """A full serving stack with two live broadcasts, ready for requests."""
    metrics = MetricsRegistry()
    simulator = Simulator(metrics=metrics)
    store = BroadcastStore(metrics=metrics)
    cache = ListCache(metrics=metrics)
    gate = FaultGate(metrics=metrics)
    users = UserRegistry()
    users.register_many(20)
    broadcasts = BroadcastService(
        store, users, PERISCOPE_PROFILE, gate, list_cache=cache, metrics=metrics
    )
    lists = ListService(store, gate, list_cache=cache, metrics=metrics)
    frontend = ServiceFrontend(
        simulator, broadcasts, lists,
        rng=np.random.default_rng(0),
        admission=admission, metrics=metrics,
    )
    first = broadcasts.start_broadcast(1, time=0.0)
    second = broadcasts.start_broadcast(2, time=0.0)
    return simulator, frontend, broadcasts, gate, (first, second)


class TestRequestFlow:
    def test_global_list_served_with_service_time(self):
        simulator, frontend, _, _, (first, second) = build_stack()
        responses = []
        frontend.submit("global_list", 0, responses.append)
        simulator.run()
        (response,) = responses
        assert response.status == "ok"
        assert set(response.page.broadcast_ids) == {
            first.broadcast_id, second.broadcast_id,
        }
        assert response.latency_s == SERVICE_TIMES_S["global_list"]

    def test_join_through_frontend(self):
        simulator, frontend, _, _, (first, _) = build_stack()
        responses = []
        frontend.submit(
            "join", 0, responses.append,
            broadcast_id=first.broadcast_id, viewer_id=5,
        )
        simulator.run()
        assert responses[0].status == "ok"
        assert first.views[0].viewer_id == 5

    def test_queueing_delays_when_workers_busy(self):
        simulator, frontend, _, _, (first, _) = build_stack()
        responses = []
        for viewer in range(CONCURRENCY + 1):
            frontend.submit(
                "join", viewer, responses.append,
                broadcast_id=first.broadcast_id, viewer_id=viewer + 3,
            )
        simulator.run()
        service_time = SERVICE_TIMES_S["join"]
        for response in responses[:CONCURRENCY]:
            assert response.latency_s == pytest.approx(service_time)
        # The last request waited for the first free worker.
        assert responses[CONCURRENCY].latency_s == pytest.approx(2 * service_time)

    def test_lifecycle_actions(self):
        simulator, frontend, _, _, _ = build_stack()
        responses = []
        frontend.submit("start_broadcast", 0, responses.append, broadcaster_id=3)
        simulator.run()
        assert responses[0].status == "ok"
        started = responses[0].broadcast_id
        frontend.submit("end_broadcast", 0, responses.append, broadcast_id=started)
        simulator.run()
        assert responses[1].status == "ok"

    def test_unknown_action_rejected(self):
        _, frontend, _, _, _ = build_stack()
        with pytest.raises(ValueError):
            frontend.submit("upload", 0, lambda response: None)


class TestCacheFastPath:
    def test_second_list_request_served_from_cache(self):
        simulator, frontend, _, _, _ = build_stack()
        responses = []
        frontend.submit("global_list", 0, responses.append)
        simulator.run()
        frontend.submit("global_list", 1, responses.append)
        simulator.run()
        assert responses[0].detail == ""
        assert responses[1].detail == "cache"
        assert responses[1].latency_s == pytest.approx(CACHE_HIT_TIME_S)
        # Stamped at delivery; the data's age is the first sample's time.
        assert responses[1].page.time == responses[1].completed_at
        assert responses[1].page.snapshot_time == responses[0].page.time
        assert responses[1].page.broadcast_ids == responses[0].page.broadcast_ids

    def test_cache_hit_builds_one_page(self, monkeypatch):
        simulator, frontend, _, _, _ = build_stack()
        frontend.submit("global_list", 0, lambda response: None)
        simulator.run()
        built = []
        original = errors.GlobalListPage.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(errors.GlobalListPage, "__init__", counting_init)
        responses = []
        frontend.submit("global_list", 1, responses.append)
        simulator.run()
        assert responses[0].detail == "cache"
        assert len(built) == 1

    def test_cache_hit_skips_brownout_coin(self):
        simulator, frontend, _, gate, _ = build_stack()
        responses = []
        frontend.submit("global_list", 0, responses.append)
        simulator.run()
        gate.set_brownout(1.0, np.random.default_rng(0))
        frontend.submit("global_list", 1, responses.append)
        simulator.run()
        # Served from cache: no backend call, no ServiceUnavailable.
        assert responses[1].status == "ok"
        assert responses[1].detail == "cache"


class TestFailureMapping:
    def test_brownout_maps_to_unavailable(self):
        simulator, frontend, _, gate, _ = build_stack()
        gate.set_brownout(1.0, np.random.default_rng(0))
        responses = []
        frontend.submit("global_list", 0, responses.append)
        simulator.run()
        assert responses[0].status == "unavailable"
        assert responses[0].retryable

    def test_api_misuse_maps_to_error(self):
        simulator, frontend, broadcasts, _, (first, _) = build_stack()
        broadcasts.end_broadcast(first.broadcast_id, time=0.0)
        responses = []
        frontend.submit(
            "join", 0, responses.append,
            broadcast_id=first.broadcast_id, viewer_id=5,
        )
        simulator.run()
        assert responses[0].status == "error"
        assert not responses[0].retryable
        assert "has ended" in responses[0].detail


class TestAdmissionAtTheDoor:
    def _admission(self):
        return AdmissionController(
            AdmissionPolicy(
                limits={"list": ApiClassLimit(rate_per_s=1.0, burst=1.0)},
                max_queue_depth=2,
            )
        )

    def test_rate_limited_requests_shed(self):
        simulator, frontend, _, _, _ = build_stack(admission=self._admission())
        responses = []
        frontend.submit("global_list", 0, responses.append)
        frontend.submit("global_list", 1, responses.append)
        simulator.run()
        statuses = sorted(response.status for response in responses)
        assert statuses == ["ok", "shed"]
        shed = next(r for r in responses if r.status == "shed")
        assert shed.retryable
        assert shed.detail == "rate_limited"
        # Shed at the door: answered immediately, zero queue time.
        assert shed.latency_s == 0.0

    def test_queue_full_sheds_even_with_tokens(self):
        admission = AdmissionController(
            AdmissionPolicy(
                limits={"join": ApiClassLimit(rate_per_s=1000.0, burst=1000.0)},
                max_queue_depth=CONCURRENCY + 1,
            )
        )
        simulator, frontend, _, _, (first, _) = build_stack(admission=admission)
        responses = []
        for viewer in range(CONCURRENCY + 4):
            frontend.submit(
                "join", viewer, responses.append,
                broadcast_id=first.broadcast_id, viewer_id=viewer + 3,
            )
        simulator.run()
        by_status = sorted(response.status for response in responses)
        # Depth counts waiting + in-flight: every worker serving, one
        # queued, the rest shed.
        assert by_status == ["ok"] * (CONCURRENCY + 1) + ["shed"] * 3
        assert all(
            response.detail == "queue_full"
            for response in responses
            if response.status == "shed"
        )


class TestDeterminism:
    def _run_once(self):
        simulator, frontend, _, _, (first, _) = build_stack()
        log = []

        def record(response):
            log.append(
                (response.request.request_id, response.status, response.completed_at)
            )

        for viewer in range(6):
            frontend.submit("global_list", viewer, record)
            frontend.submit(
                "join", viewer, record,
                broadcast_id=first.broadcast_id, viewer_id=viewer + 3,
            )
        simulator.run()
        return log

    def test_identical_runs_identical_logs(self):
        assert self._run_once() == self._run_once()
