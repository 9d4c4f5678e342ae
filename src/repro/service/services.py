"""The service tier: policy over storage.

Two services own all application policy, operating on a shared
:class:`~repro.service.store.BroadcastStore`:

* :class:`BroadcastService` — broadcast lifecycle and viewer actions:
  start/end, the RTMP-to-HLS spillover on join, the 100-commenter cap,
  hearts, leaves.  Every start/end invalidates the attached
  :class:`~repro.service.store.ListCache`, so cached global-list pages
  never misreport the live set for longer than the cache TTL.
* :class:`ListService` — the global broadcast list API: sampling up to 50
  random public live broadcasts, brown-out load shedding from the last
  good snapshot (re-stamped, with ``snapshot_time`` carrying data age),
  and the list cache the frontend tier serves from.

Both share one :class:`FaultGate`, the brownout fault surface driven by
:class:`~repro.faults.injector.FaultInjector`, which also decides whether
a browned-out call is shed (absorbed in degraded mode) or fails.  The
gate draws exactly one rng coin per *guarded* API call, in API-call
order — the draw-order contract the chaos baselines depend on (pinned by
``tests/test_platform_service.py::TestBrownoutGuardAudit``).

Guarded vs exempt APIs
----------------------
``join``, ``comment``, ``heart`` and ``global_list`` flip the brownout
coin.  ``start_broadcast``, ``end_broadcast``, ``leave``, ``can_comment``
and ``get_broadcast`` are **exempt by design**: lifecycle transitions come
from the authenticated broadcaster path (modelled as a separate, more
reliable control plane — the chaos scenario relies on broadcasts starting
and ending on schedule during a brownout), ``leave`` is client-side
bookkeeping, and the read-only helpers are not API calls.  The exemption
is load-bearing for determinism: adding a coin flip to an exempt call
would shift every subsequent draw and invalidate seeded chaos baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.platform.apps import AppProfile
from repro.platform.broadcasts import (
    Broadcast,
    Comment,
    DeliveryTier,
    Heart,
    ViewRecord,
)
from repro.platform.users import UserRegistry
from repro.service.errors import GlobalListPage, ServiceError, ServiceUnavailable
from repro.service.store import BroadcastStore, ListCache


class FaultGate:
    """The brownout fault surface shared by the service tier.

    While browned out, each guarded API call fails with probability
    ``fail_rate``; coins are drawn from the injected rng in event order so
    runs stay deterministic for a fixed seed.  No rng is ever consumed
    while healthy.  With ``load_shedding`` on, a failed call is absorbed
    in degraded mode instead (:meth:`shed`): a stale list page, a dropped
    comment or heart, a join that goes through.
    """

    __slots__ = ("load_shedding", "_fail_rate", "_rng", "_m_unavailable", "_m_shed")

    def __init__(
        self, load_shedding: bool = False, metrics: MetricsRegistry = NULL_REGISTRY
    ) -> None:
        self.load_shedding = load_shedding
        self._fail_rate = 0.0
        self._rng: Optional[np.random.Generator] = None
        self._m_unavailable = metrics.counter(
            "platform.unavailable_errors", help="API calls failed by an injected brownout"
        )
        self._m_shed = metrics.counter(
            "platform.load_shed",
            help="browned-out calls absorbed in degraded mode (stale or dropped)",
        )

    def set_brownout(self, fail_rate: float, rng: np.random.Generator) -> None:
        """Arm the brownout at ``fail_rate`` with coins drawn from ``rng``."""
        if not 0.0 <= fail_rate <= 1.0:
            raise ServiceError(f"fail_rate must be within [0, 1], got {fail_rate}")
        self._fail_rate = fail_rate
        self._rng = rng

    def clear_brownout(self) -> None:
        """End the brownout; subsequent API calls succeed normally."""
        self._fail_rate = 0.0

    def failing_now(self) -> bool:
        """One brownout coin flip (no rng is consumed when healthy)."""
        if self._fail_rate <= 0.0:
            return False
        return bool(self._rng.random() < self._fail_rate)

    def shed(self) -> bool:
        """Absorb one would-be brownout failure in degraded mode, if shedding."""
        if not self.load_shedding:
            return False
        self._m_shed.inc()
        return True

    def count_unavailable(self) -> None:
        self._m_unavailable.inc()


class BroadcastService:
    """Lifecycle and viewer-action policy over the broadcast store."""

    __slots__ = (
        "store", "users", "profile", "gate", "list_cache",
        "_next_broadcast_id",
        "_m_api", "_m_starts", "_m_ends", "_m_joins",
        "_m_comments", "_m_comments_rejected", "_m_hearts", "_m_live",
    )

    def __init__(
        self,
        store: BroadcastStore,
        users: UserRegistry,
        profile: AppProfile,
        gate: FaultGate,
        list_cache: Optional[ListCache] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.store = store
        self.users = users
        self.profile = profile
        self.gate = gate
        self.list_cache = list_cache
        self._next_broadcast_id = 1
        self._m_api = metrics.counter("platform.api_calls", help="all service API calls")
        self._m_starts = metrics.counter("platform.broadcasts_started")
        self._m_ends = metrics.counter("platform.broadcasts_ended")
        self._m_joins = metrics.counter("platform.joins")
        self._m_comments = metrics.counter("platform.comments_accepted")
        self._m_comments_rejected = metrics.counter(
            "platform.comments_rejected", help="comments over the commenter cap"
        )
        self._m_hearts = metrics.counter("platform.hearts")
        self._m_live = metrics.gauge(
            "platform.live_broadcasts", help="broadcasts currently live"
        )

    def _invalidate_lists(self) -> None:
        if self.list_cache is not None:
            self.list_cache.invalidate()

    # -- broadcast lifecycle (brownout-exempt; see module docstring) ------

    def start_broadcast(
        self,
        broadcaster_id: int,
        time: float,
        is_private: bool = False,
        location: Optional[object] = None,
    ) -> Broadcast:
        self._m_api.inc()
        if broadcaster_id not in self.users:
            raise ServiceError(f"unknown broadcaster {broadcaster_id}")
        broadcast = Broadcast(
            broadcast_id=self._next_broadcast_id,
            broadcaster_id=broadcaster_id,
            start_time=time,
            app_name=self.profile.name,
            is_private=is_private,
            location=location,
        )
        self._next_broadcast_id += 1
        self.store.insert(broadcast)
        self._m_starts.inc()
        self._m_live.set(float(self.store.live_count))
        self._invalidate_lists()
        return broadcast

    def end_broadcast(self, broadcast_id: int, time: float) -> Broadcast:
        self._m_api.inc()
        broadcast = self.get_broadcast(broadcast_id)
        if not broadcast.is_live:
            # Ending twice used to fall through to a raw KeyError from the
            # live-position pop; it is an API-usage error like any other.
            raise ServiceError(f"broadcast {broadcast_id} already ended")
        broadcast.end(time)
        self.store.retire(broadcast_id)
        self._m_ends.inc()
        self._m_live.set(float(self.store.live_count))
        self._invalidate_lists()
        return broadcast

    def get_broadcast(self, broadcast_id: int) -> Broadcast:
        broadcast = self.store.get(broadcast_id)
        if broadcast is None:
            raise ServiceError(f"unknown broadcast {broadcast_id}")
        return broadcast

    # -- viewer actions (brownout-guarded) --------------------------------

    def join(
        self, broadcast_id: int, viewer_id: int, time: float, web: bool = False
    ) -> ViewRecord:
        """Join a broadcast; tier assignment implements the spillover policy.

        The first ``rtmp_viewer_threshold`` mobile viewers connect to the
        ingest server over RTMP; later arrivals (and all web viewers) get
        HLS from the edge CDN.  The tier comes from the broadcast's kept
        RTMP count, so a join costs the same however many came before it.
        """
        self._m_api.inc()
        if self.gate.failing_now() and not self.gate.shed():
            self.gate.count_unavailable()
            raise ServiceUnavailable("join failed: service browned out")
        broadcast = self.get_broadcast(broadcast_id)
        if not broadcast.is_live:
            raise ServiceError(f"broadcast {broadcast_id} has ended")
        if time < broadcast.start_time:
            raise ServiceError("cannot join before the broadcast starts")
        if web:
            tier = DeliveryTier.WEB
        elif (
            self.profile.has_push_tier
            and broadcast.rtmp_view_count < self.profile.rtmp_viewer_threshold
        ):
            tier = DeliveryTier.RTMP
        else:
            tier = DeliveryTier.HLS
        record = ViewRecord(viewer_id=viewer_id, join_time=time, tier=tier)
        broadcast.add_view(record)
        self._m_joins.inc()
        return record

    def can_comment(self, broadcast_id: int, viewer_id: int) -> bool:
        """True if the viewer is within the commenter cap.

        Existing commenters keep the right; new commenters are admitted
        while fewer than ``comment_cap`` distinct users have commented.
        """
        broadcast = self.get_broadcast(broadcast_id)
        if viewer_id in broadcast.commenter_ids:
            return True
        return len(broadcast.commenter_ids) < self.profile.comment_cap

    def comment(self, broadcast_id: int, viewer_id: int, time: float) -> bool:
        """Post a comment; returns False when rejected by the cap."""
        self._m_api.inc()
        if self.gate.failing_now():
            if self.gate.shed():
                return False  # degraded mode: the comment is dropped, not errored
            self.gate.count_unavailable()
            raise ServiceUnavailable("comment failed: service browned out")
        broadcast = self.get_broadcast(broadcast_id)
        if not broadcast.is_live:
            raise ServiceError(f"broadcast {broadcast_id} has ended")
        if not self.can_comment(broadcast_id, viewer_id):
            self._m_comments_rejected.inc()
            return False
        broadcast.commenter_ids.add(viewer_id)
        broadcast.comments.append(Comment(viewer_id=viewer_id, time=time))
        self._m_comments.inc()
        return True

    def heart(self, broadcast_id: int, viewer_id: int, time: float) -> None:
        """Send a heart — all viewers may heart, without limit."""
        self._m_api.inc()
        if self.gate.failing_now():
            if self.gate.shed():
                return  # degraded mode: the heart is dropped, not errored
            self.gate.count_unavailable()
            raise ServiceUnavailable("heart failed: service browned out")
        broadcast = self.get_broadcast(broadcast_id)
        if not broadcast.is_live:
            raise ServiceError(f"broadcast {broadcast_id} has ended")
        broadcast.hearts.append(Heart(viewer_id=viewer_id, time=time))
        self._m_hearts.inc()

    def leave(self, broadcast_id: int, viewer_id: int, time: float) -> bool:
        """Mark the viewer's most recent open view as ended.

        Returns False when the viewer has no open view on this broadcast.
        Brownout-exempt: leaving is client-side bookkeeping, not a request
        the browned-out backend must serve.
        """
        broadcast = self.get_broadcast(broadcast_id)
        for index in range(len(broadcast.views) - 1, -1, -1):
            view = broadcast.views[index]
            if view.viewer_id == viewer_id and view.leave_time is None:
                if time < view.join_time:
                    raise ServiceError("cannot leave before joining")
                broadcast.views[index] = ViewRecord(
                    viewer_id=view.viewer_id,
                    join_time=view.join_time,
                    tier=view.tier,
                    leave_time=time,
                )
                return True
        return False


class ListService:
    """The global broadcast list API over the store's live view."""

    __slots__ = (
        "store", "gate", "global_list_size", "list_cache",
        "_stale_list", "_m_api", "_m_lists",
    )

    def __init__(
        self,
        store: BroadcastStore,
        gate: FaultGate,
        global_list_size: int = 50,
        list_cache: Optional[ListCache] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self.store = store
        self.gate = gate
        self.global_list_size = global_list_size
        self.list_cache = list_cache
        self._stale_list: Optional[GlobalListPage] = None
        self._m_api = metrics.counter("platform.api_calls", help="all service API calls")
        self._m_lists = metrics.counter("platform.global_list_queries")

    def query(
        self, time: float, rng: np.random.Generator, allow_stale: bool = True
    ) -> GlobalListPage:
        """The global list API: up to ``global_list_size`` random *public*
        active broadcasts.

        Private broadcasts never appear — the paper's crawl (and dataset)
        covers public broadcasts only.

        ``allow_stale=False`` opts out of brown-out load shedding: callers
        that can retry (the resilient crawler) prefer a retryable
        :class:`ServiceUnavailable` over silently stale data, while plain
        clients get the last good snapshot.  A shed response is re-stamped
        with the query ``time`` and carries the snapshot's own time in
        ``snapshot_time`` so degraded-mode consumers can tell data age
        apart from response time.

        A fresh sample also fills the attached list cache, the frontend
        tier's fast path.
        """
        self._m_api.inc()
        self._m_lists.inc()
        if self.gate.failing_now():
            if allow_stale and self._stale_list is not None and self.gate.shed():
                # Brown-out load shedding: answer from the last good
                # snapshot instead of erroring (stale but available).
                return self._stale_list.restamped(time)
            self.gate.count_unavailable()
            raise ServiceUnavailable("global list failed: service browned out")
        page = self.sample(time, rng)
        if self.list_cache is not None:
            self.list_cache.put(page)
        return page

    def sample(self, time: float, rng: np.random.Generator) -> GlobalListPage:
        """Freshly sample the live set (no fault surface, no caching)."""
        store = self.store
        live = [
            broadcast_id
            for broadcast_id in store.live_ids
            if not store.get(broadcast_id).is_private
        ]
        if len(live) <= self.global_list_size:
            chosen = tuple(live)
        else:
            indices = rng.choice(len(live), size=self.global_list_size, replace=False)
            chosen = tuple(live[i] for i in indices)
        page = GlobalListPage(time=time, broadcast_ids=chosen)
        self._stale_list = page  # refreshed on every success: shedding source
        return page

    def cache_lookup(self, now: float) -> Optional[GlobalListPage]:
        """The cached page, if still fresh at ``now`` (not yet re-stamped).

        The frontend answers cache hits ahead of the backend queue (no
        brownout coin is flipped — the backend was never consulted).
        """
        if self.list_cache is None:
            return None
        return self.list_cache.get(now)
