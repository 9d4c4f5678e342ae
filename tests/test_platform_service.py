"""Tests for the livestreaming service facade and its policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.apps import MEERKAT_PROFILE, PERISCOPE_PROFILE
from repro.platform.broadcasts import BroadcastState, DeliveryTier
from repro.platform.users import UserRegistry
from repro.service import LivestreamService, ServiceError, ServiceUnavailable


class TestLifecycle:
    def test_start_broadcast(self, service):
        broadcast = service.start_broadcast(1, time=10.0)
        assert broadcast.is_live
        assert broadcast.start_time == 10.0
        assert service.live_broadcast_count == 1

    def test_unknown_broadcaster_rejected(self, service):
        with pytest.raises(ServiceError):
            service.start_broadcast(9999, time=0.0)

    def test_end_broadcast(self, service, live_broadcast):
        service.end_broadcast(live_broadcast.broadcast_id, time=60.0)
        assert live_broadcast.state is BroadcastState.ENDED
        assert live_broadcast.duration == 60.0
        assert service.live_broadcast_count == 0

    def test_end_twice_rejected(self, service, live_broadcast):
        service.end_broadcast(live_broadcast.broadcast_id, time=60.0)
        with pytest.raises(ServiceError):
            service.end_broadcast(live_broadcast.broadcast_id, time=61.0)

    def test_end_twice_is_a_typed_error(self, service, live_broadcast):
        """Regression: double-end used to escape as a raw ValueError from the
        broadcast record (and a KeyError from the live-position pop on the
        storage path) instead of the facade's typed :class:`ServiceError`."""
        bid = live_broadcast.broadcast_id
        service.end_broadcast(bid, time=60.0)
        try:
            service.end_broadcast(bid, time=61.0)
        except ServiceError as error:
            assert "already ended" in str(error)
        else:
            pytest.fail("double end_broadcast did not raise")
        # The failed second end must not corrupt the record or the live list.
        assert live_broadcast.state is BroadcastState.ENDED
        assert live_broadcast.duration == 60.0
        assert service.live_broadcast_count == 0
        service.store.check_invariants()

    def test_end_unknown_broadcast_rejected(self, service):
        with pytest.raises(ServiceError):
            service.end_broadcast(12345, time=1.0)

    def test_broadcast_ids_sequential(self, service):
        first = service.start_broadcast(1, time=0.0)
        second = service.start_broadcast(2, time=0.0)
        assert second.broadcast_id == first.broadcast_id + 1

    def test_live_list_consistent_after_interleaved_ends(self, service):
        ids = [service.start_broadcast(1 + i, time=0.0).broadcast_id for i in range(5)]
        service.end_broadcast(ids[1], time=1.0)
        service.end_broadcast(ids[3], time=1.0)
        rng = np.random.default_rng(0)
        page = service.global_list(2.0, rng)
        assert set(page.broadcast_ids) == {ids[0], ids[2], ids[4]}


class TestJoinPolicy:
    def test_first_viewers_get_rtmp(self, service, live_broadcast):
        record = service.join(live_broadcast.broadcast_id, viewer_id=2, time=1.0)
        assert record.tier is DeliveryTier.RTMP

    def test_spillover_to_hls_after_threshold(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        for viewer in range(2, 2 + PERISCOPE_PROFILE.rtmp_viewer_threshold):
            service.join(bid, viewer_id=viewer, time=1.0)
        overflow = service.join(bid, viewer_id=150, time=2.0)
        assert overflow.tier is DeliveryTier.HLS
        assert live_broadcast.rtmp_view_count == PERISCOPE_PROFILE.rtmp_viewer_threshold

    def test_web_viewers_never_rtmp(self, service, live_broadcast):
        record = service.join(live_broadcast.broadcast_id, viewer_id=2, time=1.0, web=True)
        assert record.tier is DeliveryTier.WEB

    def test_meerkat_has_no_push_tier(self):
        service = LivestreamService(profile=MEERKAT_PROFILE)
        service.users.register_many(5)
        broadcast = service.start_broadcast(1, time=0.0)
        record = service.join(broadcast.broadcast_id, viewer_id=2, time=1.0)
        assert record.tier is DeliveryTier.HLS

    def test_join_ended_broadcast_rejected(self, service, live_broadcast):
        service.end_broadcast(live_broadcast.broadcast_id, time=5.0)
        with pytest.raises(ServiceError):
            service.join(live_broadcast.broadcast_id, viewer_id=2, time=6.0)

    def test_join_before_start_rejected(self, service):
        broadcast = service.start_broadcast(1, time=100.0)
        with pytest.raises(ServiceError):
            service.join(broadcast.broadcast_id, viewer_id=2, time=50.0)


class TestCommentCap:
    def test_comments_allowed_up_to_cap(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        for viewer in range(2, 2 + PERISCOPE_PROFILE.comment_cap):
            assert service.comment(bid, viewer, time=1.0)

    def test_comment_beyond_cap_rejected(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        for viewer in range(2, 2 + PERISCOPE_PROFILE.comment_cap):
            service.comment(bid, viewer, time=1.0)
        assert not service.comment(bid, viewer_id=9000, time=2.0)
        assert len(live_broadcast.commenter_ids) == PERISCOPE_PROFILE.comment_cap

    def test_existing_commenter_keeps_right(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        service.comment(bid, viewer_id=2, time=1.0)
        for viewer in range(3, 3 + PERISCOPE_PROFILE.comment_cap):
            service.comment(bid, viewer, time=1.0)
        # Viewer 2 commented before the cap filled; still allowed.
        assert service.comment(bid, viewer_id=2, time=2.0)

    def test_hearts_unlimited(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        for viewer in range(2, 150):
            service.heart(bid, viewer, time=1.0)
        assert len(live_broadcast.hearts) == 148

    def test_comment_on_ended_broadcast_rejected(self, service, live_broadcast):
        service.end_broadcast(live_broadcast.broadcast_id, time=5.0)
        with pytest.raises(ServiceError):
            service.comment(live_broadcast.broadcast_id, 2, time=6.0)


class TestGlobalList:
    def test_returns_all_when_few_live(self, service):
        ids = {service.start_broadcast(1 + i, time=0.0).broadcast_id for i in range(10)}
        page = service.global_list(1.0, np.random.default_rng(0))
        assert set(page.broadcast_ids) == ids

    def test_samples_50_when_many_live(self, service):
        for i in range(80):
            service.start_broadcast(1 + i, time=0.0)
        page = service.global_list(1.0, np.random.default_rng(0))
        assert len(page.broadcast_ids) == 50
        assert len(set(page.broadcast_ids)) == 50

    def test_random_sampling_varies(self, service):
        for i in range(80):
            service.start_broadcast(1 + i, time=0.0)
        rng = np.random.default_rng(0)
        pages = {service.global_list(1.0, rng).broadcast_ids for _ in range(5)}
        assert len(pages) > 1

    def test_never_returns_ended_broadcasts(self, service):
        keep = service.start_broadcast(1, time=0.0)
        gone = service.start_broadcast(2, time=0.0)
        service.end_broadcast(gone.broadcast_id, time=1.0)
        page = service.global_list(2.0, np.random.default_rng(0))
        assert page.broadcast_ids == (keep.broadcast_id,)


class TestUserRegistry:
    def test_sequential_ids_from_one(self):
        registry = UserRegistry()
        users = registry.register_many(5)
        assert [u.user_id for u in users] == [1, 2, 3, 4, 5]
        assert registry.max_user_id == 5

    def test_lookup(self):
        registry = UserRegistry()
        user = registry.register()
        assert registry.get(user.user_id) is user
        with pytest.raises(KeyError):
            registry.get(999)

    def test_anonymized_id_is_stable_and_opaque(self):
        registry = UserRegistry()
        user = registry.register()
        pseudonym = user.anonymized_id()
        assert pseudonym == user.anonymized_id()
        assert str(user.user_id) not in pseudonym or len(pseudonym) == 16
        assert user.anonymized_id(salt="other") != pseudonym


class TestPrivateBroadcasts:
    def test_private_broadcast_hidden_from_global_list(self, service):
        public = service.start_broadcast(1, time=0.0)
        service.start_broadcast(2, time=0.0, is_private=True)
        page = service.global_list(1.0, np.random.default_rng(0))
        assert page.broadcast_ids == (public.broadcast_id,)

    def test_private_broadcast_still_joinable_directly(self, service):
        private = service.start_broadcast(2, time=0.0, is_private=True)
        record = service.join(private.broadcast_id, viewer_id=3, time=1.0)
        assert record.viewer_id == 3


class TestViewerLeave:
    def test_leave_sets_leave_time(self, service, live_broadcast):
        service.join(live_broadcast.broadcast_id, 2, time=1.0)
        assert service.leave(live_broadcast.broadcast_id, 2, time=30.0)
        view = live_broadcast.views[0]
        assert view.leave_time == 30.0

    def test_leave_without_join_is_false(self, service, live_broadcast):
        assert not service.leave(live_broadcast.broadcast_id, 99, time=5.0)

    def test_leave_before_join_rejected(self, service, live_broadcast):
        service.join(live_broadcast.broadcast_id, 2, time=10.0)
        with pytest.raises(ServiceError):
            service.leave(live_broadcast.broadcast_id, 2, time=5.0)

    def test_rejoin_after_leave(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        service.join(bid, 2, time=1.0)
        service.leave(bid, 2, time=5.0)
        service.join(bid, 2, time=10.0)
        assert service.leave(bid, 2, time=20.0)
        assert [v.leave_time for v in live_broadcast.views] == [5.0, 20.0]

    def test_concurrent_viewers_over_time(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        service.join(bid, 2, time=0.0)
        service.join(bid, 3, time=5.0)
        service.join(bid, 4, time=10.0)
        service.leave(bid, 2, time=8.0)
        broadcast = live_broadcast
        assert broadcast.concurrent_viewers(1.0) == 1
        assert broadcast.concurrent_viewers(6.0) == 2
        assert broadcast.concurrent_viewers(9.0) == 1
        assert broadcast.concurrent_viewers(11.0) == 2

    def test_peak_concurrency(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        for viewer, (join, leave) in enumerate(
            [(0.0, 10.0), (2.0, 4.0), (3.0, 12.0), (11.0, 15.0)], start=2
        ):
            service.join(bid, viewer, time=join)
            service.leave(bid, viewer, time=leave)
        assert live_broadcast.peak_concurrent_viewers() == 3

    def test_peak_concurrency_open_views_count(self, service, live_broadcast):
        bid = live_broadcast.broadcast_id
        service.join(bid, 2, time=0.0)
        service.join(bid, 3, time=1.0)  # never leaves
        assert live_broadcast.peak_concurrent_viewers() == 2

    def test_engagement_sessions_record_leaves(self, service, live_broadcast):
        from repro.platform.engagement import EngagementModel

        model = EngagementModel(median_watch_s=20.0)
        rng = np.random.default_rng(4)
        plan = model.sample_session(5, 0.0, 100.0, rng)
        model.apply_session(service, live_broadcast.broadcast_id, plan, 0.0)
        view = live_broadcast.views[0]
        assert view.leave_time == pytest.approx(plan.watch_duration_s)


class TestUserIdSchemes:
    def test_sequential_public_ids(self):
        registry = UserRegistry()
        registry.register_many(3)
        assert registry.public_id(2) == "2"

    def test_sequential_estimator_works(self):
        """The paper counted 12M users from the max observed ID (§3.1)."""
        registry = UserRegistry()
        registry.register_many(50)
        observed = [registry.public_id(i) for i in (3, 41, 17)]
        assert registry.estimate_total_users_from_observations(observed) == 41

    def test_hash_scheme_has_13_char_ids(self):
        registry = UserRegistry(id_scheme="hash")
        registry.register_many(5)
        public = registry.public_id(3)
        assert len(public) == 13
        assert public != "3"

    def test_hash_scheme_defeats_the_estimator(self):
        """September 2015: the switch to hash IDs closed the side channel."""
        registry = UserRegistry(id_scheme="hash")
        registry.register_many(5)
        observed = [registry.public_id(i) for i in (1, 2, 3)]
        assert registry.estimate_total_users_from_observations(observed) is None

    def test_hash_ids_stable_and_distinct(self):
        registry = UserRegistry(id_scheme="hash")
        registry.register_many(100)
        ids = {registry.public_id(i) for i in range(1, 101)}
        assert len(ids) == 100
        assert registry.public_id(7) == registry.public_id(7)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            UserRegistry(id_scheme="uuid")

    def test_empty_observations(self):
        registry = UserRegistry()
        assert registry.estimate_total_users_from_observations([]) == 0


class TestLoadShedSnapshotTime:
    """The shed global-list contract: query-time stamp + snapshot data age."""

    def _shedding_service(self):
        service = LivestreamService(load_shedding=True)
        service.users.register_many(10)
        for i in range(3):
            service.start_broadcast(1 + i, time=0.0)
        return service

    def test_fresh_page_has_no_snapshot_time(self, service):
        service.start_broadcast(1, time=0.0)
        page = service.global_list(5.0, np.random.default_rng(0))
        assert page.snapshot_time is None
        assert not page.is_stale
        assert page.age_s == 0.0

    def test_shed_page_restamped_with_query_time(self):
        service = self._shedding_service()
        rng = np.random.default_rng(0)
        service.global_list(10.0, rng)  # seeds the stale snapshot
        service.set_brownout(1.0, np.random.default_rng(1))
        page = service.global_list(25.0, rng)
        # Re-stamped with the *query* time, never the snapshot's...
        assert page.time == 25.0
        # ...while snapshot_time reports when the data was actually sampled.
        assert page.snapshot_time == 10.0
        assert page.is_stale
        assert page.age_s == 15.0

    def test_shed_page_serves_last_good_ids(self):
        service = self._shedding_service()
        rng = np.random.default_rng(0)
        good = service.global_list(10.0, rng)
        service.set_brownout(1.0, np.random.default_rng(1))
        page = service.global_list(25.0, rng)
        assert page.broadcast_ids == good.broadcast_ids


class TestBrownoutGuardAudit:
    """Every API either flips exactly one brownout coin or is exempt.

    The draw order is load-bearing: seeded chaos baselines replay the same
    coin sequence, so adding/removing a draw anywhere shifts every
    subsequent outcome.  This test pins the per-API draw counts by
    advancing a control generator in lockstep and comparing states.
    """

    GUARDED_DRAWS = 1  # join, comment, heart, global_list: one coin each
    EXEMPT_DRAWS = 0  # start/end/leave/can_comment/get_broadcast: no coin

    @staticmethod
    def _state(rng):
        return rng.bit_generator.state["state"]

    def test_guarded_apis_draw_exactly_one_coin(self, service):
        broadcast = service.start_broadcast(1, time=0.0)
        bid = broadcast.broadcast_id
        fault_rng = np.random.default_rng(99)
        control = np.random.default_rng(99)
        service.set_brownout(0.5, fault_rng)
        list_rng = np.random.default_rng(7)
        calls = [
            lambda: service.join(bid, 2, time=1.0),
            lambda: service.comment(bid, 2, time=1.0),
            lambda: service.heart(bid, 2, time=1.0),
            lambda: service.global_list(1.0, list_rng),
        ]
        for call in calls:
            try:
                call()
            except ServiceUnavailable:
                pass
            control.random()  # the one coin the API must have drawn
            assert self._state(fault_rng) == self._state(control)

    def test_exempt_apis_draw_no_coins(self, service):
        broadcast = service.start_broadcast(1, time=0.0)
        bid = broadcast.broadcast_id
        service.join(bid, 2, time=1.0)
        fault_rng = np.random.default_rng(99)
        control = np.random.default_rng(99)
        service.set_brownout(0.5, fault_rng)
        # Lifecycle and bookkeeping are exempt by design: the chaos
        # scenario starts/ends broadcasts during brownouts without guards.
        service.can_comment(bid, 2)
        service.get_broadcast(bid)
        service.leave(bid, 2, time=2.0)
        second = service.start_broadcast(3, time=2.0)
        service.end_broadcast(second.broadcast_id, time=3.0)
        assert self._state(fault_rng) == self._state(control)

    def test_no_draws_while_healthy(self, service):
        broadcast = service.start_broadcast(1, time=0.0)
        fault_rng = np.random.default_rng(99)
        before = self._state(fault_rng)
        service.set_brownout(0.5, fault_rng)
        service.clear_brownout()
        try:
            service.join(broadcast.broadcast_id, 2, time=1.0)
        except ServiceUnavailable:  # pragma: no cover - must not happen
            pytest.fail("healthy service raised ServiceUnavailable")
        assert self._state(fault_rng) == before
