"""A minimal, deterministic discrete-event simulation engine.

The engine is one heap of ``(time, sequence, label, action)`` tuples and a
clock that only moves forward.  The sequence is a global insertion counter,
so callbacks due at the same instant fire in the order they were scheduled
(one an action schedules for the current instant runs after those already
queued for it), and two runs with the same seed produce identical traces.
Sequences are unique, so ordering is a C-level tuple comparison that never
reaches the label or the action.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(2.0, lambda: fired.append("b"))
>>> sim.schedule(1.0, lambda: fired.append("a"))
>>> sim.run()
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import SpanRecorder


class SimulationError(Exception):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Simulator:
    """Discrete-event simulator with a forward-only clock starting at 0.

    Components schedule callbacks at absolute times (:meth:`schedule_at`) or
    relative delays (:meth:`schedule`).  ``run`` drains the heap, optionally
    up to a horizon.

    Passing a live :class:`~repro.obs.metrics.MetricsRegistry` as ``metrics``
    turns on engine observability: per-label event counts and inter-event
    gaps (spans keyed by the label prefix before ``:``), plus a processed
    counter and a queue-depth gauge.  The default ``NULL_REGISTRY`` keeps
    the run loop on a single pointer check.
    """

    def __init__(self, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._heap: list[tuple[float, int, str, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._metrics = metrics
        self._spans: Optional[SpanRecorder] = None
        if metrics.enabled:
            metrics.bind_simulator(self)
            self._spans = SpanRecorder(metrics)
            metrics.add_collector(self._collect)

    def _collect(self, registry: MetricsRegistry) -> None:
        """Snapshot collector: publish engine totals without hot-path cost."""
        processed = registry.counter(
            "engine.events_processed", help="events executed by the run loop"
        )
        if self._events_processed > processed.value:
            processed.inc(self._events_processed - processed.value)
        registry.gauge("engine.queue_depth", help="pending events").set(
            float(len(self._heap))
        )

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this simulator reports into (NULL_REGISTRY when off)."""
        return self._metrics

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._sequence), label, action))

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        heapq.heappush(self._heap, (time, next(self._sequence), label, action))

    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        ``until`` stops the run once the next event would fire after it and
        advances the clock exactly to ``until``; ``None`` drains the heap.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        spans = self._spans
        horizon = math.inf if until is None else until
        try:
            while heap and heap[0][0] <= horizon:
                time, _, label, action = pop(heap)
                self._now = time
                if spans is not None:
                    spans.record(label, time)
                action()
                self._events_processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
