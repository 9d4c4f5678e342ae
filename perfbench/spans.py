"""An in-memory span tracer that wraps ``repro`` entry points from outside.

The benchmark never edits program code.  To see inside a workload it
replaces the module or class attribute a caller looks up — for example
``Simulator.run`` or ``repro.social.metrics.average_clustering`` — with a
wrapper that opens a span around the original, and puts every original
back when the traced repetition ends.

Each span records its name, start, end and parent.  Self time (the span's
duration minus the time its child spans cover) is accumulated online per
span name.  Spans on hot paths (one per served request) are *aggregated*:
their count and time still enter the per-name totals and their parent's
child time, but instead of one record per call their parent span carries
a per-name ``[count, seconds]`` summary, which keeps memory flat over
hundreds of thousands of calls.

:func:`write_chrome_trace` exports the stored spans as Chrome trace-event
JSON (``"ph": "X"`` complete events), which Perfetto and
``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence


class Tracer:
    """Spans and per-name totals for one traced repetition."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        #: Stored spans: [name, start, end, parent index or -1, aggregated children].
        self.spans: list[list[Any]] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        #: name -> summed count (events, frames, hits) reported by wrappers
        self.counts: dict[str, float] = {}
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, aggregate: bool) -> list[Any]:
        index = -1
        if not aggregate:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stored_parent(), {}])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        name, start, child_s, index = frame
        self._stack.pop()
        duration = end - start
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            record = self.spans[index]
            record[1] = start - self.origin
            record[2] = end - self.origin
        else:
            parent = self._stored_parent()
            if parent >= 0:
                summary = self.spans[parent][4].setdefault(name, [0, 0.0])
                summary[0] += 1
                summary[1] += duration

    def _stored_parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a stored span around the ``with`` body."""
        frame = self._enter(name, aggregate=False)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        aggregate: bool = False,
        probe: Optional[Callable[[tuple], float]] = None,
        count: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-opening wrapper until :meth:`unpatch`.

        ``probe(args)`` is read before and after each call and the
        difference is added to ``counts[name]`` (e.g. engine events);
        ``count(result)`` adds a count derived from the return value.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            before = probe(args) if probe is not None else 0.0
            frame = tracer._enter(name, aggregate)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if probe is not None:
                tracer.add_count(name, probe(args) - before)
            if count is not None:
                tracer.add_count(name, count(result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def seconds(self, name: str) -> float:
        """Inclusive seconds summed over every span called ``name``."""
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time per layer: the span-name prefix before the first dot."""
        layers: dict[str, float] = {}
        for name, (_, _, self_s) in self.totals.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers

    def chrome_events(self, tid: int) -> list[dict[str, Any]]:
        events = []
        for index, (name, start, end, parent, summary) in enumerate(self.spans):
            args: dict[str, Any] = {"id": index, "parent": parent}
            if summary:
                args["aggregated"] = {
                    child: {"calls": calls, "seconds": round(seconds, 6)}
                    for child, (calls, seconds) in sorted(summary.items())
                }
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return events


def write_chrome_trace(path: Path, tracers: Sequence[Tracer], metadata: dict) -> None:
    """Write every tracer's spans as one Chrome trace-event file.

    Each traced repetition becomes its own thread row (``tid``), with
    timestamps relative to that repetition's start.
    """
    events: list[dict[str, Any]] = []
    for tid, tracer in enumerate(tracers, start=1):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": f"repetition {tid}"}}
        )
        events.extend(tracer.chrome_events(tid))
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
    path.write_text(json.dumps(payload), encoding="utf-8")
