"""Runtime determinism sanitizer — the dynamic half of :mod:`repro.lint`.

While a :class:`DeterminismSanitizer` is active, the process-global
``random`` module functions and the wall-clock readers ``time.time`` /
``time.monotonic`` (and their ``_ns`` variants) are patched to raise
:class:`DeterminismViolation` **naming the offending call site** whenever
repo or test code calls them.  Standard-library and third-party internals
(``threading`` timeouts, ``logging`` timestamps, pytest's own timing) pass
through to the real functions, so the sanitizer can stay armed across an
entire simulation run — including multi-process trace generation — without
breaking the interpreter's plumbing.

``time.perf_counter`` is deliberately left alone: it is the sanctioned
wall-runtime reporter for the timing-only sites the static ``wall-clock``
rule allowlists.

The patches are observational only — a clean run executes the exact same
simulation code path and produces byte-identical output with the sanitizer
on or off (test-enforced).
"""

from __future__ import annotations

import os

# repro: allow[unseeded-random] imported only to patch the global RNG so misuse raises
import random
import sys
import time

__all__ = [
    "DeterminismSanitizer",
    "DeterminismViolation",
    "is_active",
    "verify_hashseed_pinned",
]


class DeterminismViolation(RuntimeError):
    """Simulation code read the wall clock or the process-global RNG."""


#: ``random``-module functions that consume or mutate the global RNG state.
PATCHED_RANDOM_FUNCTIONS = (
    "random",
    "uniform",
    "triangular",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "vonmisesvariate",
    "gammavariate",
    "gauss",
    "betavariate",
    "paretovariate",
    "weibullvariate",
    "getrandbits",
    "randbytes",
    "seed",
)

#: Wall-clock readers forbidden inside sanitized runs.
PATCHED_TIME_FUNCTIONS = ("time", "time_ns", "monotonic", "monotonic_ns")

#: Caller filename prefixes exempt from the guard: the stdlib tree (which
#: contains site-packages on most layouts) plus any explicit site/dist
#: packages directory, and synthetic filenames like ``<frozen importlib>``.
_EXEMPT_PREFIXES = (os.path.dirname(os.__file__),)
_EXEMPT_MARKERS = ("site-packages", "dist-packages")

_active_depth = 0


def is_active() -> bool:
    """True while at least one :class:`DeterminismSanitizer` is entered."""
    return _active_depth > 0


def _caller_is_exempt(filename: str) -> bool:
    if filename.startswith("<"):
        return True
    if any(marker in filename for marker in _EXEMPT_MARKERS):
        return True
    return any(filename.startswith(prefix) for prefix in _EXEMPT_PREFIXES)


def _make_guard(qualname: str, original):
    def guard(*args, **kwargs):
        frame = sys._getframe(1)
        filename = frame.f_code.co_filename
        if _caller_is_exempt(filename):
            return original(*args, **kwargs)
        raise DeterminismViolation(
            f"{qualname}() called from {filename}:{frame.f_lineno} during a "
            "sanitized run; simulation code must use the simulator clock and "
            "RandomStreams named substreams"
        )

    guard.__name__ = original.__name__
    guard.__qualname__ = qualname
    guard.__sanitizer_guard__ = True
    return guard


def verify_hashseed_pinned(workers: int = 2) -> None:
    """Require a pinned ``PYTHONHASHSEED`` before a multi-process run.

    Single-process runs never leak hash order into output (the repo's rules
    and tests see to that), but across worker processes an unpinned hash
    seed gives every worker a different str-hash order — any latent
    set/dict-order dependence then breaks byte-identity silently.  Raises
    :class:`DeterminismViolation` when ``workers > 1`` and the environment
    does not pin the seed to a concrete integer.
    """
    if workers <= 1:
        return
    value = os.environ.get("PYTHONHASHSEED", "")
    if not value.isdigit():
        raise DeterminismViolation(
            f"PYTHONHASHSEED is {value!r} but a sanitized run requested "
            f"{workers} worker processes; export PYTHONHASHSEED=<int> so every "
            "worker hashes identically"
        )


class DeterminismSanitizer:
    """Context manager that arms the runtime determinism guards.

    >>> with DeterminismSanitizer():
    ...     pass  # any random.random()/time.time() from repo code raises

    Re-entrant: nested activations share one set of patches, restored when
    the outermost context exits.  ``workers`` (optional) also runs the
    :func:`verify_hashseed_pinned` check on entry.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "DeterminismSanitizer":
        global _active_depth
        verify_hashseed_pinned(self.workers)
        if _active_depth == 0:
            self._apply_patches()
        _active_depth += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_depth
        _active_depth -= 1
        if _active_depth == 0:
            self._remove_patches()

    def _apply_patches(self) -> None:
        for name in PATCHED_RANDOM_FUNCTIONS:
            self._patch(random, f"random.{name}", name)
        for name in PATCHED_TIME_FUNCTIONS:
            self._patch(time, f"time.{name}", name)

    def _patch(self, module, qualname: str, name: str) -> None:
        original = getattr(module, name, None)
        if original is None or getattr(original, "__sanitizer_guard__", False):
            return
        self._patched.append((module, name, original))
        setattr(module, name, _make_guard(qualname, original))

    def _remove_patches(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)


def sanitized(workers: int = 1) -> DeterminismSanitizer:
    """Convenience constructor: ``with sanitized(): ...``."""
    return DeterminismSanitizer(workers=workers)
