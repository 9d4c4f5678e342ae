"""Simulation-time-aware metrics primitives.

The registry deliberately never reads the wall clock: the only notion of
"now" is the clock of a bound :class:`~repro.simulation.engine.Simulator`
(``registry.bind_simulator(sim)``), so two runs with the same seed produce
byte-identical snapshots.  Three primitive families cover the repo's needs:

* :class:`Counter` — monotone event counts (requests, cache hits, throttles),
* :class:`Gauge` — last-write-wins levels with min/max tracking (queue depth),
* :class:`Histogram` — fixed-bucket distribution plus a deterministic
  streaming quantile summary (queueing delays, inter-event gaps).

Everything is pure stdlib + floats; no dependencies beyond what the repo
already ships.  The :class:`NullRegistry` singleton (``NULL_REGISTRY``)
provides no-op twins of every primitive so instrumented components pay a
single no-op method call when observability is off — the safe default at
every call site.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Callable, Iterable, Optional, Sequence

#: Default histogram bucket upper bounds (seconds-flavoured, log-spaced).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class MetricError(Exception):
    """Raised on metric misuse (name collisions across types, bad buckets)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict:
        return {"value": self._value}


class Gauge:
    """A level that can move both ways; remembers its min/max excursions."""

    __slots__ = ("name", "help", "_value", "_min", "_max")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._min = math.inf
        self._max = -math.inf

    def set(self, value: float) -> None:
        value = float(value)
        self._value = value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def min(self) -> float:
        return self._min if self._min != math.inf else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max != -math.inf else 0.0

    def to_dict(self) -> dict:
        return {"value": self._value, "min": self.min, "max": self.max}


class StreamingQuantile:
    """A deterministic bounded-memory quantile sketch.

    Keeps a systematic 1-in-``stride`` sample of the stream in a buffer of
    at most ``max_size`` values; when the buffer fills, every other kept
    value is dropped and the stride doubles.  No randomness is involved, so
    identical streams yield identical summaries — the property the repo's
    determinism tests rely on.
    """

    __slots__ = ("max_size", "_buffer", "_stride", "_seen")

    def __init__(self, max_size: int = 512) -> None:
        if max_size < 8:
            raise MetricError("quantile buffer must hold at least 8 values")
        self.max_size = max_size
        self._buffer: list[float] = []
        self._stride = 1
        self._seen = 0

    def observe(self, value: float) -> None:
        if self._seen % self._stride == 0:
            self._buffer.append(value)
            if len(self._buffer) >= self.max_size:
                self._buffer = self._buffer[::2]
                self._stride *= 2
        self._seen += 1

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be within [0, 1], got {q}")
        if not self._buffer:
            return math.nan
        ordered = sorted(self._buffer)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max and quantile summary."""

    __slots__ = (
        "name", "help", "_bounds", "_counts", "_count", "_sum",
        "_min", "_max", "_summary",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} buckets must be strictly increasing")
        self.name = name
        self.help = help
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # final slot = overflow
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._summary = StreamingQuantile()

    def observe(self, value: float) -> None:
        value = float(value)
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._summary.observe(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        return self._summary.quantile(q)

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative counts keyed by upper bound (Prometheus ``le`` style)."""
        cumulative = 0
        out: dict[str, int] = {}
        for bound, count in zip(self._bounds, self._counts):
            cumulative += count
            out[f"{bound:g}"] = cumulative
        out["inf"] = self._count
        return out

    def to_dict(self) -> dict:
        quantiles = {}
        if self._count:
            quantiles = {
                "p50": self.quantile(0.50),
                "p90": self.quantile(0.90),
                "p99": self.quantile(0.99),
            }
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "buckets": self.bucket_counts(),
            **quantiles,
        }


#: A snapshot-time hook; lets components publish batched aggregates lazily.
Collector = Callable[["MetricsRegistry"], None]


class MetricsRegistry:
    """Named metrics plus the simulated clock they report against.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the type, later calls return the same object (a different type at
    the same name raises).  Components that batch their accounting register
    a :data:`Collector`, invoked at :meth:`snapshot` time.
    """

    enabled = True

    def __init__(self) -> None:
        self._simulator = None
        self._metrics: dict[str, object] = {}
        self._collectors: list[Collector] = []

    # -- clock -----------------------------------------------------------

    def bind_simulator(self, simulator) -> None:
        """Use ``simulator.now`` as this registry's notion of time."""
        self._simulator = simulator

    def now(self) -> float:
        """Current simulated time (0.0 when no simulator is bound)."""
        return self._simulator.now if self._simulator is not None else 0.0

    # -- get-or-create ---------------------------------------------------

    def _get(self, name: str, kind: type, factory: Callable[[], object]):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise MetricError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, help, buckets))

    def add_collector(self, collector: Collector) -> None:
        self._collectors.append(collector)

    # -- introspection ---------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """All metrics as one JSON-able dict, collectors flushed first."""
        for collector in self._collectors:
            collector(self)
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.to_dict()
            elif isinstance(metric, Gauge):
                gauges[name] = metric.to_dict()
            else:
                histograms[name] = metric.to_dict()  # type: ignore[union-attr]
        return {
            "sim_time_s": self.now(),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def as_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# -- the off switch -------------------------------------------------------


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose primitives are shared no-ops.

    Passing this (the module default everywhere) keeps the instrumentation
    cost to one no-op method call per observation — measured at under 10%
    of the micro-benchmark budget in ``benchmarks/test_obs_overhead.py``.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str, help: str = "") -> Counter:
        return self._null_counter

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._null_histogram

    def add_collector(self, collector: Collector) -> None:
        pass

    def snapshot(self) -> dict:
        return {"sim_time_s": 0.0, "counters": {}, "gauges": {}, "histograms": {}}


#: Module-level default: observability off, zero setup required.
NULL_REGISTRY = NullRegistry()
