"""The storage tier: the broadcast store and the global-list cache.

:class:`BroadcastStore` owns every broadcast record and one live list:
the ids of the live broadcasts in insertion order, with a position index
for O(1) swap-remove.  Global-list sampling walks that list, so seeded
runs visit candidates in the same order on every run.

The swap-remove bookkeeping is an explicit, checkable invariant
(:meth:`BroadcastStore.check_invariants`): the position index must match
the live list, and every listed id must still be live.  Ending a
broadcast twice cannot corrupt it — :meth:`retire` refuses to retire a
broadcast that is not live.

:class:`ListCache` holds the last freshly sampled global-list page with
simulated-time TTL expiry (:data:`CACHE_TTL_S`) and explicit
invalidation (the service tier invalidates on every broadcast start/end,
so a cached page can never outlive the live set it was sampled from by
more than the TTL).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.platform.broadcasts import Broadcast
from repro.service.errors import GlobalListPage


#: Simulated seconds a sampled global-list page answers later list requests.
CACHE_TTL_S = 1.0


class StoreError(Exception):
    """Raised on storage-tier contract violations (retiring a dead id...)."""


class BroadcastStore:
    """Broadcast storage with an O(1)-maintained, insertion-ordered live list."""

    __slots__ = (
        "_broadcasts",
        "_live_ids",
        "_live_positions",
        "_m_inserts",
        "_m_retired",
        "_g_live",
    )

    def __init__(self, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._broadcasts: dict[int, Broadcast] = {}
        # Insertion-ordered live ids + position index for O(1) swap-remove.
        self._live_ids: list[int] = []
        self._live_positions: dict[int, int] = {}
        self._m_inserts = metrics.counter(
            "service.store.inserts", help="broadcasts inserted into the store"
        )
        self._m_retired = metrics.counter(
            "service.store.retired", help="broadcasts retired from the live list"
        )
        self._g_live = metrics.gauge("service.store.live", help="live broadcasts")

    # -- writes -----------------------------------------------------------

    def insert(self, broadcast: Broadcast) -> None:
        """Add a new live broadcast to the store and the live list."""
        broadcast_id = broadcast.broadcast_id
        if broadcast_id in self._broadcasts:
            raise StoreError(f"broadcast {broadcast_id} already stored")
        self._broadcasts[broadcast_id] = broadcast
        self._live_positions[broadcast_id] = len(self._live_ids)
        self._live_ids.append(broadcast_id)
        self._m_inserts.inc()
        self._g_live.set(float(len(self._live_ids)))

    def retire(self, broadcast_id: int) -> None:
        """Remove a broadcast from the live list (it stays retrievable).

        O(1): the list swap-removes against its position index.  Retiring
        an id that is not live raises :class:`StoreError`, so ending a
        broadcast twice is a typed error rather than a raw ``KeyError``.
        """
        position = self._live_positions.pop(broadcast_id, None)
        if position is None:
            raise StoreError(f"broadcast {broadcast_id} is not live")
        last_id = self._live_ids[-1]
        self._live_ids[position] = last_id
        self._live_ids.pop()
        if last_id != broadcast_id:
            self._live_positions[last_id] = position
        self._m_retired.inc()
        self._g_live.set(float(len(self._live_ids)))

    # -- reads ------------------------------------------------------------

    def get(self, broadcast_id: int) -> Optional[Broadcast]:
        """The broadcast record, or None when the id was never stored."""
        return self._broadcasts.get(broadcast_id)

    def is_live(self, broadcast_id: int) -> bool:
        """True while the broadcast is in the live list."""
        return broadcast_id in self._live_positions

    @property
    def live_ids(self) -> list[int]:
        """The live list, in insertion-then-swap order.

        Callers must treat this as read-only; it is exposed (rather than
        copied) because global-list sampling walks it on every query.
        """
        return self._live_ids

    @property
    def live_count(self) -> int:
        return len(self._live_ids)

    @property
    def total_count(self) -> int:
        return len(self._broadcasts)

    def all_broadcasts(self) -> list[Broadcast]:
        """Every broadcast ever stored, in insertion order."""
        return list(self._broadcasts.values())

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify the live bookkeeping; raise :class:`StoreError` if it is off.

        Checked: the position index matches the live list exactly, and
        every live id resolves to a stored, still-live broadcast.  Tests
        call this after every mutation; it is O(live) and allocation-light,
        so harnesses can afford to run it continuously.
        """
        if len(self._live_positions) != len(self._live_ids):
            raise StoreError(
                f"position index has {len(self._live_positions)} entries, "
                f"live list has {len(self._live_ids)}"
            )
        for position, broadcast_id in enumerate(self._live_ids):
            if self._live_positions.get(broadcast_id) != position:
                raise StoreError(
                    f"broadcast {broadcast_id} at position {position} but "
                    f"index says {self._live_positions.get(broadcast_id)}"
                )
            broadcast = self._broadcasts.get(broadcast_id)
            if broadcast is None or not broadcast.is_live:
                raise StoreError(f"live list contains dead id {broadcast_id}")


class ListCache:
    """The last sampled global-list page, with sim-time TTL and invalidation.

    ``get`` returns the stored page while it is at most :data:`CACHE_TTL_S`
    old; the caller re-stamps it at delivery
    (:meth:`~repro.service.errors.GlobalListPage.restamped`), so the
    response carries the sample's own time in ``snapshot_time``.  The
    service tier calls :meth:`invalidate` on every broadcast start/end.
    """

    __slots__ = ("_page", "_m_hits", "_m_misses", "_m_expired", "_m_invalidations")

    def __init__(self, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._page: Optional[GlobalListPage] = None
        self._m_hits = metrics.counter("service.cache.hits", help="list-cache hits")
        self._m_misses = metrics.counter("service.cache.misses", help="list-cache misses")
        self._m_expired = metrics.counter(
            "service.cache.expired", help="lookups that found only an expired page"
        )
        self._m_invalidations = metrics.counter(
            "service.cache.invalidations", help="explicit cache invalidations"
        )

    def get(self, now: float) -> Optional[GlobalListPage]:
        """The stored page while still fresh at ``now``, or None."""
        page = self._page
        if page is None:
            self._m_misses.inc()
            return None
        if now - page.time > CACHE_TTL_S:
            self._page = None
            self._m_expired.inc()
            self._m_misses.inc()
            return None
        self._m_hits.inc()
        return page

    def put(self, page: GlobalListPage) -> None:
        """Store a freshly sampled page."""
        if page.snapshot_time is not None:
            raise StoreError("only fresh pages may populate the list cache")
        self._page = page

    def invalidate(self) -> None:
        """Drop the stored page (a broadcast started or ended)."""
        if self._page is not None:
            self._page = None
            self._m_invalidations.inc()
