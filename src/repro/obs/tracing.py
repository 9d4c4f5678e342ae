"""Lightweight span timing on simulated time.

:class:`SpanRecorder` does per-component event accounting for the engine's
run loop.  Event labels like ``"hls-poll:42"`` are keyed by their prefix
(``"hls-poll"``), so per-component event counts and the simulated time
between consecutive events of a component come for free from labels the
codebase already sets.  The hot path is two dict operations plus one
histogram observe; counts are published to the registry lazily via a
snapshot collector.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry


class SpanRecorder:
    """Aggregates per-label event counts and inter-event gaps."""

    __slots__ = ("_registry", "_counts", "_published", "_last", "_gaps")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._counts: dict[str, int] = {}
        self._published: dict[str, float] = {}
        self._last: dict[str, float] = {}
        self._gaps: dict[str, Histogram] = {}
        registry.add_collector(self._collect)

    def record(self, label: str, now: float) -> None:
        """Account one engine event with ``label`` firing at sim time ``now``."""
        key = label.partition(":")[0] if label else "unlabelled"
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        last = self._last.get(key)
        if last is not None:
            gap_hist = self._gaps.get(key)
            if gap_hist is None:
                gap_hist = self._registry.histogram(
                    f"engine.span.{key}.gap_s",
                    help="simulated time between consecutive events of this label",
                )
                self._gaps[key] = gap_hist
            gap_hist.observe(now - last)
        self._last[key] = now

    def _collect(self, registry: MetricsRegistry) -> None:
        for key, count in self._counts.items():
            counter = registry.counter(
                f"engine.span.{key}.events", help="events processed with this label"
            )
            done = self._published.get(key, 0.0)
            if count > done:
                counter.inc(count - done)
                self._published[key] = float(count)
