"""A minimal, deterministic discrete-event simulation engine.

The engine is intentionally simple: a priority queue of timestamped events,
a clock that only moves forward, and cancellation support.  Ties are broken
by insertion order so two runs with the same seed produce identical traces.
The heap holds ``(time, sequence, event)`` tuples, so ordering is a C-level
tuple comparison.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(2.0, lambda: fired.append("b"))  # doctest: +ELLIPSIS
Event(...)
>>> sim.schedule(1.0, lambda: fired.append("a"))  # doctest: +ELLIPSIS
Event(...)
>>> sim.run()
>>> fired
['a', 'b']
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.tracing import SpanRecorder


class SimulationError(Exception):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    The queue orders events by ``(time, sequence)`` — the sequence number is
    a global insertion counter, which makes simultaneous events fire in the
    order they were scheduled.  This keeps runs deterministic.

    A ``__slots__`` class rather than a dataclass: events are created once
    per scheduled callback, so construction and attribute access sit on the
    engine's hottest path.
    """

    __slots__ = ("time", "sequence", "action", "cancelled", "label", "_queue", "_in_heap")

    def __init__(
        self,
        time: float,
        sequence: int,
        action: Callable[[], None],
        label: str = "",
        _queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.label = label
        self._queue = _queue
        self._in_heap = _queue is not None

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"label={self.label!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time arrives."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None and self._in_heap:
            self._queue._notify_cancel()


class EventQueue:
    """A heap of :class:`Event` objects with lazy cancellation.

    Live/cancelled accounting is kept incrementally so ``len`` is O(1)
    (``Simulator.pending`` in a loop used to be quadratic), and the heap is
    compacted once cancelled entries outnumber live ones, bounding both
    memory and pop latency under heavy cancellation.
    """

    #: Below this heap size, compaction is not worth the heapify.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        # Sequences are unique, so comparisons never reach the event itself.
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0  # cancelled events still sitting in the heap
        self.cancelled_total = 0

    def __len__(self) -> int:
        return self._live

    @property
    def dead(self) -> int:
        """Cancelled events not yet purged from the heap."""
        return self._dead

    @property
    def heap_size(self) -> int:
        """Physical heap length (live + not-yet-purged cancelled)."""
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        sequence = next(self._counter)
        event = Event(time, sequence, action, label, self)
        heapq.heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def _notify_cancel(self) -> None:
        """An in-heap event was cancelled; update accounting, maybe compact."""
        self._live -= 1
        self._dead += 1
        self.cancelled_total += 1
        if self._dead * 2 >= len(self._heap) and len(self._heap) >= self._COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify.

        ``heapify`` preserves the ``(time, sequence)`` ordering contract, so
        pop order — and therefore simulation determinism — is unaffected.
        """
        for _, _, event in self._heap:
            if event.cancelled:
                event._in_heap = False
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def pop(self, until: Optional[float] = None) -> Optional[Event]:
        """Return the next non-cancelled event, or ``None`` when drained or
        when it fires after ``until`` (it then stays queued)."""
        time = self.peek_time()
        if time is None or (until is not None and time > until):
            return None
        event = heapq.heappop(self._heap)[2]
        event._in_heap = False
        self._live -= 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2]._in_heap = False
            self._dead -= 1
        if heap:
            return heap[0][0]
        return None


class Simulator:
    """Discrete-event simulator with a forward-only clock.

    Components schedule callbacks at absolute times (:meth:`schedule_at`) or
    relative delays (:meth:`schedule`).  ``run`` drains the queue, optionally
    up to a horizon.

    Passing a live :class:`~repro.obs.metrics.MetricsRegistry` as ``metrics``
    turns on engine observability: per-label event counts and inter-event
    gaps (spans keyed by the label prefix before ``:``), plus processed /
    cancelled counters and a queue-depth gauge.  The default
    ``NULL_REGISTRY`` keeps the run loop on a single pointer check.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._queue = EventQueue()
        self._now = float(start_time)
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
        cancelled = registry.counter(
            "engine.events_cancelled", help="events cancelled before firing"
        )
        if self._queue.cancelled_total > cancelled.value:
            cancelled.inc(self._queue.cancelled_total - cancelled.value)
        registry.gauge("engine.queue_depth", help="pending events").set(
            float(len(self._queue))
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
        return len(self._queue)

    def schedule(self, delay: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, action, label)

    def schedule_at(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        return self._queue.push(time, action, label)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event would fire after this time; the clock is
            advanced exactly to ``until``.  ``None`` drains the queue.
        max_events:
            Safety valve — stop after this many events.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed_this_run = 0
        spans = self._spans
        pop = self._queue.pop
        try:
            while max_events is None or processed_this_run < max_events:
                event = pop(until)
                if event is None:
                    break
                self._now = event.time
                if spans is not None:
                    spans.record(event.label, event.time)
                event.action()
                self._events_processed += 1
                processed_this_run += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
