"""Resilience primitives: retry policies and circuit breakers.

Everything here is simulation-time-deterministic: delays are computed from
explicit attempt counts and an *injected* rng (for jitter), never the wall
clock, so a seeded run that exercises retries is byte-identical across
processes.  The primitives are deliberately dormant on the happy path — a
component configured with a :class:`RetryPolicy` that never fails draws no
randomness and schedules no extra work, preserving the repo's
zero-cost-default contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter and budgets.

    ``next_delay(attempt, elapsed_s)`` answers "the attempt numbered
    ``attempt`` (0-based) just failed after ``elapsed_s`` seconds since the
    first try — when should the next one run?", returning ``None`` when the
    caller should give up (attempts or deadline exhausted).

    * ``base_delay_s * backoff**attempt`` capped at ``max_delay_s``,
    * multiplicative jitter of ±``jitter_frac`` drawn from ``rng`` (no rng,
      no jitter — and no draw ever happens unless a retry is scheduled),
    * an optional ``hint`` floor — e.g.
      :meth:`~repro.simulation.rate_limit.TokenBucket.time_until_available` —
      so retries wake exactly when the resource can admit them instead of
      blind-polling,
    * ``attempt_timeout_s`` bounds a single in-flight attempt (consumed by
      pollers that arm a response watchdog),
    * ``deadline_s`` bounds the whole retry sequence.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.5
    backoff: float = 2.0
    max_delay_s: float = 10.0
    jitter_frac: float = 0.1
    attempt_timeout_s: float = math.inf
    deadline_s: float = math.inf
    rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter_frac must be within [0, 1)")
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    def backoff_delay_s(self, attempt: int) -> float:
        """The undithered backoff delay after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        return min(self.max_delay_s, self.base_delay_s * self.backoff**attempt)

    def next_delay(
        self,
        attempt: int,
        elapsed_s: float,
        hint: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> Optional[float]:
        """Delay before the next attempt, or ``None`` to give up.

        ``hint`` is a lower bound from the failing resource (seconds until
        it can admit the request); ``deadline_s`` overrides the policy-wide
        deadline for this sequence (callers cap retries at their own
        cadence, e.g. a crawler's refresh interval).
        """
        if attempt + 1 >= self.max_attempts:
            return None
        delay = self.backoff_delay_s(attempt)
        if self.jitter_frac > 0.0 and self.rng is not None:
            spread = self.jitter_frac * (2.0 * float(self.rng.random()) - 1.0)
            delay *= 1.0 + spread
        if hint is not None:
            delay = max(delay, hint)
        limit = self.deadline_s if deadline_s is None else deadline_s
        if elapsed_s + delay > limit:
            return None
        return delay


class CircuitBreaker:
    """A three-state circuit breaker driven by explicit (simulated) time.

    Closed: requests flow, consecutive failures are counted.  After
    ``failure_threshold`` consecutive failures the breaker *opens*:
    :meth:`allow_request` answers False (callers degrade gracefully, e.g.
    a Fastly edge serves its stale cached chunklist) until ``cooldown_s``
    has passed, at which point a single probe is let through (*half-open*).
    A successful probe closes the breaker; a failed one re-opens it and
    restarts the cooldown.
    """

    __slots__ = (
        "failure_threshold", "cooldown_s", "name",
        "_state", "_failures", "_opened_at",
        "_m_opened", "_m_closed", "_m_probes", "_m_rejected", "_h_open",
    )

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 20.0,
        metrics: MetricsRegistry = NULL_REGISTRY,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s < 0:
            raise ValueError("cooldown must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._m_opened = metrics.counter(
            "resilience.breaker.opened", help="circuit-breaker open transitions"
        )
        self._m_closed = metrics.counter(
            "resilience.breaker.closed", help="circuit-breaker recoveries (probe succeeded)"
        )
        self._m_probes = metrics.counter(
            "resilience.breaker.probes", help="half-open probe requests admitted"
        )
        self._m_rejected = metrics.counter(
            "resilience.breaker.rejected", help="requests short-circuited while open"
        )
        self._h_open = metrics.histogram(
            "resilience.breaker.open_s", help="time from open to recovery"
        )

    @property
    def state(self) -> str:
        """One of ``"closed"``, ``"open"``, ``"half_open"``."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow_request(self, now: float) -> bool:
        """Should a request be attempted at simulated time ``now``?"""
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN:
            if now - self._opened_at >= self.cooldown_s:
                self._state = self.HALF_OPEN
                self._m_probes.inc()
                return True  # the single probe
            self._m_rejected.inc()
            return False
        # Half-open: one probe is already in flight.
        self._m_rejected.inc()
        return False

    def record_success(self, now: float) -> None:
        """The guarded call succeeded; close the circuit if it was open."""
        self._failures = 0
        if self._state != self.CLOSED:
            self._h_open.observe(now - self._opened_at)
            self._m_closed.inc()
            self._state = self.CLOSED

    def record_failure(self, now: float) -> None:
        """The guarded call failed; maybe open the circuit."""
        self._failures += 1
        if self._state == self.HALF_OPEN or (
            self._state == self.CLOSED and self._failures >= self.failure_threshold
        ):
            self._state = self.OPEN
            self._opened_at = now
            self._m_opened.inc()
