"""Host-normalized timing: each timed part is bracketed by a reference kernel.

The benchmark host is a 2-vCPU virtual machine whose speed drifts by 30%
or more over minutes as neighbouring machines load the physical host;
the drift affects the guest's CPU time as much as its wall time, and a
slow phase often outlasts a whole run, so neither the minimum nor the
median over a run's repetitions cancels it.  What does cancel it is a
ratio: a fixed reference kernel run right before and right after each
timed part slows down by about as much as the part itself.  A part's
*normalized* time is::

    elapsed * REFERENCE_S / mean(reference before, reference after)

— the part's wall time expressed in seconds of an uncontended host, on
which the kernel takes ``REFERENCE_S``.  On this host the ratio cut the
spread over five seeds of a 1.2 s serving repetition from 34% to 6%.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

#: Seconds the reference kernel takes on an uncontended host: the fastest
#: of 200 runs on a 2-vCPU Intel Xeon at 2.1 GHz, CPython 3.11, NumPy.
REFERENCE_S = 0.0548


def reference_kernel() -> int:
    """A fixed mix of interpreter work (a dict tally) and NumPy sorts, in under 2 MB."""
    tally: dict[int, int] = {}
    for i in range(250_000):
        key = i * 7919 % 1009
        tally[key] = tally.get(key, 0) + i
    values = np.arange(100_000, dtype=np.int64) * 7919 % 100_003
    largest = 0
    for _ in range(20):
        largest = max(largest, int(np.sort(values)[-1]))
    return len(tally) + largest


def reference() -> float:
    """Wall seconds of one reference-kernel run."""
    began = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - began


class Meter:
    """Times the parts of one repetition, normalized when ``normalize`` is set."""

    def __init__(self, normalize: bool) -> None:
        self._before: Optional[float] = reference() if normalize else None
        #: part name -> (elapsed seconds, normalized seconds or None)
        self.parts: dict[str, tuple[float, Optional[float]]] = {}

    @contextmanager
    def part(self, name: str) -> Iterator[None]:
        began = time.perf_counter()
        yield
        elapsed = time.perf_counter() - began
        normalized = None
        if self._before is not None:
            after = reference()
            normalized = elapsed * REFERENCE_S / ((self._before + after) / 2)
            self._before = after
        self.parts[name] = (elapsed, normalized)

    @property
    def elapsed(self) -> float:
        return sum(elapsed for elapsed, _ in self.parts.values())

    @property
    def normalized(self) -> float:
        return sum(normalized or 0.0 for _, normalized in self.parts.values())
