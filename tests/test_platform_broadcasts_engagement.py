"""Tests for broadcast records, app profiles, and engagement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platform.apps import (
    APPLE_VOD_CHUNK_S,
    FACEBOOK_LIVE_PROFILE,
    MEERKAT_PROFILE,
    PERISCOPE_PROFILE,
)
from repro.platform.broadcasts import Broadcast, DeliveryTier, ViewRecord
from repro.platform.engagement import EngagementModel


class TestBroadcast:
    def test_duration_requires_end(self):
        broadcast = Broadcast(broadcast_id=1, broadcaster_id=1, start_time=0.0)
        with pytest.raises(ValueError):
            _ = broadcast.duration
        broadcast.end(90.0)
        assert broadcast.duration == 90.0

    def test_end_before_start_rejected(self):
        broadcast = Broadcast(broadcast_id=1, broadcaster_id=1, start_time=50.0)
        with pytest.raises(ValueError):
            broadcast.end(49.0)

    def test_view_counts_by_tier(self):
        broadcast = Broadcast(broadcast_id=1, broadcaster_id=1, start_time=0.0)
        broadcast.add_view(ViewRecord(2, 1.0, DeliveryTier.RTMP))
        broadcast.add_view(ViewRecord(3, 2.0, DeliveryTier.HLS))
        broadcast.add_view(ViewRecord(4, 3.0, DeliveryTier.WEB))
        assert broadcast.rtmp_view_count == 1
        assert broadcast.hls_view_count == 2
        assert broadcast.total_views == 3
        assert broadcast.unique_viewer_ids == {2, 3, 4}

    def test_watch_duration_bounded_by_broadcast_end(self):
        record = ViewRecord(viewer_id=2, join_time=10.0, tier=DeliveryTier.RTMP)
        assert record.watch_duration(broadcast_end=60.0) == 50.0
        leaving = ViewRecord(2, 10.0, DeliveryTier.RTMP, leave_time=30.0)
        assert leaving.watch_duration(broadcast_end=60.0) == 20.0


class TestAppProfiles:
    def test_periscope_constants_match_paper(self):
        assert PERISCOPE_PROFILE.chunk_duration_s == 3.0
        assert PERISCOPE_PROFILE.frames_per_chunk == 75
        assert PERISCOPE_PROFILE.rtmp_viewer_threshold == 100
        assert PERISCOPE_PROFILE.comment_cap == 100
        assert PERISCOPE_PROFILE.polling_interval_range_s == (2.0, 2.8)
        assert not PERISCOPE_PROFILE.encrypted_video  # the §7 vulnerability

    def test_meerkat_constants_match_paper(self):
        assert MEERKAT_PROFILE.chunk_duration_s == 3.6
        assert MEERKAT_PROFILE.ingest_protocol == "http-post"
        assert not MEERKAT_PROFILE.has_push_tier

    def test_facebook_live_is_encrypted(self):
        assert FACEBOOK_LIVE_PROFILE.ingest_protocol == "rtmps"
        assert FACEBOOK_LIVE_PROFILE.encrypted_video

    def test_vod_chunk_reference(self):
        assert APPLE_VOD_CHUNK_S == 10.0

    def test_profile_validation(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(PERISCOPE_PROFILE, chunk_duration_s=0.0)
        with pytest.raises(ValueError):
            replace(PERISCOPE_PROFILE, polling_interval_range_s=(3.0, 2.0))


class TestEngagementModel:
    def test_watch_duration_bounded_by_remaining(self):
        model = EngagementModel(median_watch_s=1e6)
        rng = np.random.default_rng(0)
        plan = model.sample_session(2, join_offset_s=0.0, remaining_broadcast_s=30.0, rng=rng)
        assert plan.watch_duration_s <= 30.0

    def test_event_times_within_watch(self):
        model = EngagementModel(heart_rate_per_min=30.0, comment_rate_per_min=10.0)
        rng = np.random.default_rng(0)
        plan = model.sample_session(2, 0.0, 300.0, rng)
        for offset in plan.heart_times + plan.comment_times:
            assert 0.0 <= offset < plan.watch_duration_s

    def test_negative_remaining_rejected(self):
        model = EngagementModel()
        with pytest.raises(ValueError):
            model.sample_session(2, 0.0, -1.0, np.random.default_rng(0))

    def test_excitement_scales_activity(self):
        model = EngagementModel(heart_burst_prob=0.0)
        rng = np.random.default_rng(0)
        calm = sum(
            len(model.sample_session(2, 0.0, 600.0, rng, excitement=0.1).heart_times)
            for _ in range(50)
        )
        rng = np.random.default_rng(0)
        hyped = sum(
            len(model.sample_session(2, 0.0, 600.0, rng, excitement=10.0).heart_times)
            for _ in range(50)
        )
        assert hyped > calm

    def test_apply_session_counts_cap_rejections(self, service, live_broadcast):
        model = EngagementModel(comment_rate_per_min=60.0, median_watch_s=300.0)
        rng = np.random.default_rng(1)
        accepted_total = 0
        # Flood well past the 100-commenter cap.
        for viewer in range(2, 140):
            plan = model.sample_session(viewer, 0.0, 300.0, rng)
            outcome = model.apply_session(
                service, live_broadcast.broadcast_id, plan, broadcast_start=0.0
            )
            accepted_total += outcome["comments"]
        assert len(live_broadcast.commenter_ids) <= 100
        assert accepted_total == len(live_broadcast.comments)

    def test_hearts_recorded_in_broadcast(self, service, live_broadcast):
        model = EngagementModel(heart_rate_per_min=120.0, median_watch_s=120.0)
        rng = np.random.default_rng(2)
        plan = model.sample_session(5, 0.0, 120.0, rng)
        model.apply_session(service, live_broadcast.broadcast_id, plan, 0.0)
        assert len(live_broadcast.hearts) == len(plan.heart_times)
