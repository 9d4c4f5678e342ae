"""Admission control for the frontend tier.

Extends PR 2's brown-out load shedding (which absorbs *injected* failures)
with overload protection for the request path: a token-bucket rate limiter
per API class plus queue-depth-based shedding.  Both mechanisms run on
simulated time and are deterministic — no randomness is involved, so the
same request arrival sequence always sheds the same requests.

A request is admitted only if (1) the frontend queue is below
``max_queue_depth`` and (2) the API class's token bucket has a token.
Shed requests are answered immediately with a retryable 503-style
response; they never consume backend capacity, which is what lets the
frontend survive the Twitch-style flash crowds the workload scenarios
inject (the p99 of admitted requests stays bounded while excess load is
turned away at the door).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.simulation.rate_limit import TokenBucket

#: The API classes the serving layer distinguishes.  ``list`` is the
#: global-list poll (the dominant load), ``join`` the per-broadcast join,
#: ``engage`` comments + hearts, ``lifecycle`` broadcaster start/end.
API_CLASSES = ("list", "join", "engage", "lifecycle")

#: Shed reasons (also the counter suffixes).
SHED_QUEUE_FULL = "queue_full"
SHED_RATE_LIMITED = "rate_limited"


@dataclass(frozen=True)
class ApiClassLimit:
    """Token-bucket parameters for one API class."""

    rate_per_s: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-API-class rate limits plus the global queue-depth bound.

    The defaults are sized for the toy serve-bench scale (tens of polling
    clients): a steady baseline fits comfortably, a flash crowd an order
    of magnitude above it is shed at the door.
    """

    limits: dict[str, ApiClassLimit] = field(
        default_factory=lambda: {
            "list": ApiClassLimit(rate_per_s=60.0, burst=120.0),
            "join": ApiClassLimit(rate_per_s=100.0, burst=200.0),
            "engage": ApiClassLimit(rate_per_s=200.0, burst=400.0),
            "lifecycle": ApiClassLimit(rate_per_s=20.0, burst=40.0),
        }
    )
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1")
        for api in self.limits:
            if api not in API_CLASSES:
                raise ValueError(f"unknown API class {api!r}; known: {API_CLASSES}")


class AdmissionController:
    """Deterministic admission decisions for the frontend.

    :meth:`admit` returns ``None`` to admit or a shed reason string
    (:data:`SHED_QUEUE_FULL` / :data:`SHED_RATE_LIMITED`).  Queue depth is
    checked first — when the backend is already drowning, even requests
    with rate budget are turned away, and no token is consumed for them.
    """

    __slots__ = ("policy", "_buckets", "_m_admitted", "_m_shed", "_per_class_shed")

    def __init__(
        self, policy: Optional[AdmissionPolicy] = None, metrics: MetricsRegistry = NULL_REGISTRY
    ) -> None:
        self.policy = policy if policy is not None else AdmissionPolicy()
        # The buckets run on simulated time; their own metrics stay off so
        # the crawler.ratelimit.* names remain the crawler's alone.
        self._buckets = {
            api: TokenBucket(rate_per_s=limit.rate_per_s, capacity=limit.burst)
            for api, limit in sorted(self.policy.limits.items())
        }
        self._m_admitted = metrics.counter(
            "service.admission.admitted", help="requests admitted to the frontend queue"
        )
        self._m_shed = metrics.counter(
            "service.admission.shed", help="requests shed by admission control"
        )
        self._per_class_shed = {
            (api, reason): metrics.counter(
                f"service.admission.shed.{api}.{reason}",
                help=f"{api} requests shed ({reason})",
            )
            for api in API_CLASSES
            for reason in (SHED_QUEUE_FULL, SHED_RATE_LIMITED)
        }

    def admit(self, api: str, now: float, queue_depth: int) -> Optional[str]:
        """Admit or shed one request of class ``api`` arriving at ``now``."""
        if api not in API_CLASSES:
            raise ValueError(f"unknown API class {api!r}; known: {API_CLASSES}")
        if queue_depth >= self.policy.max_queue_depth:
            self._count_shed(api, SHED_QUEUE_FULL)
            return SHED_QUEUE_FULL
        bucket = self._buckets.get(api)
        if bucket is not None and not bucket.try_acquire(now):
            self._count_shed(api, SHED_RATE_LIMITED)
            return SHED_RATE_LIMITED
        self._m_admitted.inc()
        return None

    def _count_shed(self, api: str, reason: str) -> None:
        self._m_shed.inc()
        self._per_class_shed[(api, reason)].inc()

    def tokens_available(self, api: str) -> float:
        """Current token balance for an API class (diagnostics/tests)."""
        bucket = self._buckets.get(api)
        return bucket.available if bucket is not None else float("inf")
