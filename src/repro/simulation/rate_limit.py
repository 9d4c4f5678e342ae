"""Token-bucket rate limiting.

Both sides of the measurement hit rate limits: Periscope whitelisted the
authors' IP range but the allotted rate eventually could not keep up with
broadcast growth (§3.1 footnote), and Meerkat asked the authors to stop
after a month of measurable server load.  The crawler components accept a
token bucket so those constraints can be reproduced and their effect on
coverage studied; the serving tier's admission control
(:mod:`repro.service.admission`) keeps one bucket per API class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY


@dataclass
class TokenBucket:
    """A standard token bucket driven by explicit (simulated) time.

    ``capacity`` tokens maximum, refilled at ``rate_per_s``.  Call
    :meth:`try_acquire` with the current simulated time.
    """

    rate_per_s: float
    capacity: float
    metrics: MetricsRegistry = field(default=NULL_REGISTRY, repr=False)
    #: Fault-injection surface: refill-rate multiplier in (0, 1] while the
    #: bucket is starved (1.0 = healthy).  Set by ``repro.faults``.
    fault_refill_factor: float = field(default=1.0, init=False, repr=False)
    _tokens: float = field(init=False)
    _last_refill: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate must be positive")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        self._tokens = self.capacity
        self._m_granted = self.metrics.counter("crawler.ratelimit.granted", help="acquisitions that got tokens")
        self._m_throttled = self.metrics.counter("crawler.ratelimit.throttled", help="acquisitions denied for lack of tokens")

    @property
    def effective_rate_per_s(self) -> float:
        """The refill rate after any injected starvation factor."""
        return self.rate_per_s * self.fault_refill_factor

    def _refill(self, now: float) -> None:
        if now < self._last_refill:
            raise ValueError("time went backwards")
        self._tokens = min(
            self.capacity,
            self._tokens + (now - self._last_refill) * self.effective_rate_per_s,
        )
        self._last_refill = now

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; returns False when throttled."""
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        if tokens > self.capacity:
            raise ValueError(
                f"{tokens} token(s) requested but capacity is {self.capacity}; "
                "the request can never be satisfied"
            )
        self._refill(now)
        if self._tokens >= tokens:
            self._tokens -= tokens
            self._m_granted.inc()
            return True
        self._m_throttled.inc()
        return False

    def time_until_available(self, now: float, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0.0 when they already
        are).  Pure query: no state is mutated, so a retry policy can use it
        to schedule the next attempt instead of blind polling.
        """
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        if tokens > self.capacity:
            raise ValueError(
                f"{tokens} token(s) requested but capacity is {self.capacity}; "
                "the request can never be satisfied"
            )
        if now < self._last_refill:
            raise ValueError("time went backwards")
        tokens_now = min(
            self.capacity,
            self._tokens + (now - self._last_refill) * self.effective_rate_per_s,
        )
        if tokens_now >= tokens:
            return 0.0
        return (tokens - tokens_now) / self.effective_rate_per_s

    def drain(self) -> None:
        """Remove all tokens immediately (fault injection: quota revoked)."""
        self._tokens = 0.0

    @property
    def available(self) -> float:
        return self._tokens
