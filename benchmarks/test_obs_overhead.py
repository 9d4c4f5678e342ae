"""Overhead budget for the observability layer.

The contract that makes ``repro.obs`` safe-by-default: a Simulator built
without a registry (the ``NULL_REGISTRY`` default) must run the event-engine
micro-benchmark within ~10% of a bare event loop — today's engine loop
replicated below without its observability: the same tuple heap, past-time
check and processed counter, but no span hook, metrics or reentrancy guard.
A second (non-budget) measurement reports what a live registry costs, so
future PRs can see the price of always-on metrics.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import os
import time

from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import SimulationError, Simulator

#: Smoke mode (OBS_OVERHEAD_SMOKE=1): a fast CI-gate pass that still
#: exercises both code paths but with a smaller workload and a looser
#: budget (short runs are noisier).
_SMOKE = os.environ.get("OBS_OVERHEAD_SMOKE", "") not in ("", "0")
N_EVENTS = 5_000 if _SMOKE else 30_000
ROUNDS = 9 if _SMOKE else 21
#: Budget for the default (NullRegistry) path vs the bare loop.
MAX_OVERHEAD = 1.35 if _SMOKE else 1.10


class _BareSimulator:
    """``Simulator``'s scheduling and run loop without the span hook — the
    uninstrumented baseline the overhead budget is measured against."""

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0

    def schedule(self, delay: float, action, label: str = "") -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), label, action))

    def run(self, until=None) -> None:
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        while heap and heap[0][0] <= horizon:
            at, _, _, action = pop(heap)
            self._now = at
            action()
            self._events_processed += 1
        if until is not None and self._now < until:
            self._now = until


def _workload(simulator) -> int:
    count = 0

    def tick():
        nonlocal count
        count += 1

    for i in range(N_EVENTS):
        simulator.schedule(i * 0.001, tick)
    simulator.run()
    return count


def _best_interleaved(make_baseline, make_candidate) -> tuple[float, float]:
    """Each side's best round, timing the two sides in alternating order so
    host drift between rounds lands on both.  The cyclic collector is
    paused inside each round (as ``timeit`` does), so its passes, which
    fall at the same allocation count every round, cannot land on one
    side only."""
    best = [float("inf"), float("inf")]
    makers = (make_baseline, make_candidate)
    for round_ in range(ROUNDS):
        for side in ((0, 1) if round_ % 2 == 0 else (1, 0)):
            simulator = makers[side]()
            gc.collect()
            gc.disable()
            try:
                started = time.perf_counter()
                assert _workload(simulator) == N_EVENTS
                best[side] = min(best[side], time.perf_counter() - started)
            finally:
                gc.enable()
    return best[0], best[1]


def test_null_registry_overhead_within_budget():
    """The default path costs at most ~10% over a bare event loop."""
    # Warm both paths once so allocator/JIT-ish effects land outside timing.
    _workload(_BareSimulator())
    _workload(Simulator())

    bare, instrumented = _best_interleaved(_BareSimulator, Simulator)
    ratio = instrumented / bare
    print(f"\nnull-registry overhead: bare={bare * 1e3:.1f}ms "
          f"default={instrumented * 1e3:.1f}ms ratio={ratio:.3f}")
    assert ratio <= MAX_OVERHEAD, (
        f"NullRegistry path is {ratio:.2f}x the bare loop (budget {MAX_OVERHEAD}x)"
    )


def test_live_registry_cost_is_bounded(benchmark):
    """Informational: a live registry observes every event (span counts +
    inter-event gap histograms), so it costs real time — but must stay
    within a small constant factor, not blow up."""

    def run():
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        result = _workload(simulator)
        return result, registry

    result, registry = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == N_EVENTS
    snap = registry.snapshot()
    assert snap["counters"]["engine.events_processed"]["value"] == N_EVENTS
    gap = snap["histograms"]["engine.span.unlabelled.gap_s"]
    assert gap["count"] == N_EVENTS - 1

    bare, live = _best_interleaved(
        _BareSimulator, lambda: Simulator(metrics=MetricsRegistry())
    )
    print(f"live-registry overhead: {live / bare:.2f}x over bare")
    assert live / bare < 10.0
