"""API error types and response pages for the serving layer.

They sit in their own module so the storage, service and frontend tiers
can raise them without importing the facade, which imports those tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class ServiceError(Exception):
    """Raised on invalid API usage (joining a dead broadcast, etc.)."""


class ServiceUnavailable(ServiceError):
    """Transient 503-style failure: the service is browned out.

    Raised (probabilistically, at the injected failure rate) while a
    :class:`~repro.faults.injector.FaultInjector` marks the service browned
    out.  Callers are expected to retry — this is the error class
    :class:`~repro.simulation.resilience.RetryPolicy` treats as retryable.
    """


@dataclass(frozen=True)
class GlobalListPage:
    """One response from the global broadcast list API.

    ``time`` is always the query time the caller supplied.  When the page
    was answered from a stale snapshot (brown-out load shedding) or the
    list cache, ``snapshot_time`` records when the underlying sample was
    actually taken; for a freshly sampled page it is ``None``.
    """

    time: float
    broadcast_ids: tuple[int, ...]
    snapshot_time: Optional[float] = None

    def restamped(self, time: float) -> "GlobalListPage":
        """This freshly sampled page served again at query ``time``.

        The one re-stamp rule for pages answered from an older sample (the
        list cache, brown-out load shedding): the response carries the
        query time, and ``snapshot_time`` keeps when the sample was taken.
        """
        return GlobalListPage(
            time=time, broadcast_ids=self.broadcast_ids, snapshot_time=self.time
        )

    @property
    def is_stale(self) -> bool:
        """True when this page was served from an older snapshot."""
        return self.snapshot_time is not None and self.snapshot_time < self.time

    @property
    def age_s(self) -> float:
        """Seconds between the underlying sample and the query (0 if fresh)."""
        if self.snapshot_time is None:
            return 0.0
        return max(0.0, self.time - self.snapshot_time)
