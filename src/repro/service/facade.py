"""The livestreaming service facade.

This is the API surface the paper's crawler spoke to: start/end broadcasts,
join as viewer (with the RTMP-to-HLS spillover policy), comment (capped at
the first 100 commenters), heart, and the global broadcast list that
returns 50 randomly-selected active broadcasts per query (§3.1).

:class:`LivestreamService` is a thin facade over the tiered serving stack
in this package — a :class:`~repro.service.store.BroadcastStore`
(storage tier) operated by :class:`~repro.service.services.BroadcastService`
and :class:`~repro.service.services.ListService` (service tier), sharing one
:class:`~repro.service.services.FaultGate` brownout surface.  The error and
page types it raises and returns live in :mod:`repro.service.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.platform.apps import AppProfile, PERISCOPE_PROFILE
from repro.platform.broadcasts import Broadcast, ViewRecord
from repro.platform.users import UserRegistry
from repro.service.errors import GlobalListPage
from repro.service.services import BroadcastService, FaultGate, ListService
from repro.service.store import BroadcastStore, RegionCache


@dataclass
class LivestreamService:
    """In-memory implementation of the application backend.

    The service is deliberately small: the heavy lifting (video transport)
    lives in :mod:`repro.cdn`; this facade wires up the serving tiers, which
    own the policy decisions (spillover threshold, comment cap, list
    sampling) over the broadcast store.
    """

    profile: AppProfile = field(default_factory=lambda: PERISCOPE_PROFILE)
    global_list_size: int = 50
    users: UserRegistry = field(default_factory=UserRegistry)
    metrics: MetricsRegistry = field(default=NULL_REGISTRY, repr=False)
    #: Resilience knob: during a brownout, answer global-list queries that
    #: would otherwise fail with the last good (stale) snapshot instead of
    #: raising :class:`ServiceUnavailable` — graceful degradation.
    load_shedding: bool = False
    #: Optional region cache shared with a frontend tier; the facade alone
    #: never populates it (``global_list`` passes no region).
    region_cache: Optional[RegionCache] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.store = BroadcastStore(metrics=self.metrics)
        self.gate = FaultGate(metrics=self.metrics)
        self.broadcasts = BroadcastService(
            self.store,
            self.users,
            self.profile,
            self.gate,
            load_shedding=self.load_shedding,
            region_cache=self.region_cache,
            metrics=self.metrics,
        )
        self.lists = ListService(
            self.store,
            self.gate,
            global_list_size=self.global_list_size,
            load_shedding=self.load_shedding,
            region_cache=self.region_cache,
            metrics=self.metrics,
        )

    # -- fault surface (driven by repro.faults.FaultInjector) --------------

    @property
    def browned_out(self) -> bool:
        """True while a fault injector marks the service browned out."""
        return self.gate.browned_out

    def set_brownout(self, fail_rate: float, rng: np.random.Generator) -> None:
        """Mark the service browned out: each API call fails with probability
        ``fail_rate`` (drawn from ``rng`` in event order, so runs stay
        deterministic for a fixed seed)."""
        self.gate.set_brownout(fail_rate, rng)

    def clear_brownout(self) -> None:
        """End the brownout; subsequent API calls succeed normally."""
        self.gate.clear_brownout()

    # -- broadcast lifecycle -------------------------------------------

    def start_broadcast(
        self,
        broadcaster_id: int,
        time: float,
        is_private: bool = False,
        location: Optional[object] = None,
    ) -> Broadcast:
        """Start a broadcast for a registered user."""
        return self.broadcasts.start_broadcast(
            broadcaster_id, time, is_private=is_private, location=location
        )

    def end_broadcast(self, broadcast_id: int, time: float) -> Broadcast:
        """End a live broadcast; ending twice raises :class:`ServiceError`."""
        return self.broadcasts.end_broadcast(broadcast_id, time)

    def get_broadcast(self, broadcast_id: int) -> Broadcast:
        """The broadcast record; :class:`ServiceError` on an unknown id."""
        return self.broadcasts.get_broadcast(broadcast_id)

    @property
    def live_broadcast_count(self) -> int:
        """Broadcasts currently live."""
        return self.store.live_count

    @property
    def total_broadcast_count(self) -> int:
        """Every broadcast ever started, live or ended."""
        return self.store.total_count

    def all_broadcasts(self) -> list[Broadcast]:
        """All broadcast records, in start order."""
        return self.store.all_broadcasts()

    # -- viewer actions --------------------------------------------------

    def join(
        self, broadcast_id: int, viewer_id: int, time: float, web: bool = False
    ) -> ViewRecord:
        """Join a broadcast; tier assignment implements the spillover policy."""
        return self.broadcasts.join(broadcast_id, viewer_id, time, web=web)

    def can_comment(self, broadcast_id: int, viewer_id: int) -> bool:
        """True if the viewer is within the commenter cap."""
        return self.broadcasts.can_comment(broadcast_id, viewer_id)

    def comment(self, broadcast_id: int, viewer_id: int, time: float) -> bool:
        """Post a comment; returns False when rejected by the cap."""
        return self.broadcasts.comment(broadcast_id, viewer_id, time)

    def heart(self, broadcast_id: int, viewer_id: int, time: float) -> None:
        """Send a heart — all viewers may heart, without limit."""
        self.broadcasts.heart(broadcast_id, viewer_id, time)

    # -- discovery --------------------------------------------------------

    def global_list(
        self, time: float, rng: np.random.Generator, allow_stale: bool = True
    ) -> GlobalListPage:
        """The global list API: up to 50 random *public* active broadcasts.

        Private broadcasts never appear — the paper's crawl (and dataset)
        covers public broadcasts only.

        ``allow_stale=False`` opts out of brown-out load shedding: callers
        that can retry (the resilient crawler) prefer a retryable
        :class:`ServiceUnavailable` over silently stale data, while plain
        clients get the last good snapshot (re-stamped at the query time,
        with the snapshot's own age in ``snapshot_time``).
        """
        return self.lists.query(time, rng, allow_stale=allow_stale)

    # -- viewer lifecycle ---------------------------------------------------

    def leave(self, broadcast_id: int, viewer_id: int, time: float) -> bool:
        """Mark the viewer's most recent open view as ended."""
        return self.broadcasts.leave(broadcast_id, viewer_id, time)
