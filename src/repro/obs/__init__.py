"""Observability for the simulator: metrics, span timing, snapshots.

Usage::

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    simulator = Simulator(metrics=registry)        # engine spans + queue depth
    service = LivestreamService(metrics=registry)  # API call counters
    ...
    print(registry.as_json())

Every instrumented component defaults to :data:`NULL_REGISTRY`, whose
primitives are no-ops — existing call sites keep working unchanged and pay
essentially nothing (see ``benchmarks/test_obs_overhead.py``).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    StreamingQuantile,
)
from repro.obs.process import peak_rss_mb
from repro.obs.tracing import SpanRecorder

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SpanRecorder",
    "peak_rss_mb",
]
