"""Tests for the workload generators (growth, arrivals, parameters, trace)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import generate_trace
from repro.workload.arrivals import SECONDS_PER_DAY, daily_arrival_times
from repro.workload.broadcast_model import BroadcastParamsModel
from repro.workload.growth import (
    GrowthModel,
    MEERKAT_GROWTH,
    PERISCOPE_GROWTH,
    weekday_of_day,
)
from repro.workload.trace import TraceConfig


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestGrowthModel:
    def test_periscope_grows_over_3x(self):
        start = np.mean([PERISCOPE_GROWTH.broadcasts_on(d) for d in range(7)])
        end = np.mean([PERISCOPE_GROWTH.broadcasts_on(d) for d in range(91, 98)])
        assert end / start > 3.0

    def test_meerkat_roughly_halves(self):
        start = np.mean([MEERKAT_GROWTH.broadcasts_on(d) for d in range(7)])
        end = np.mean([MEERKAT_GROWTH.broadcasts_on(d) for d in range(28, 35)])
        assert 0.35 < end / start < 0.75

    def test_periscope_total_near_19_6m(self):
        assert PERISCOPE_GROWTH.total_broadcasts() == pytest.approx(19.6e6, rel=0.08)

    def test_meerkat_total_near_164k(self):
        assert MEERKAT_GROWTH.total_broadcasts() == pytest.approx(164e3, rel=0.12)

    def test_android_launch_jump(self):
        before = PERISCOPE_GROWTH.broadcasts_on(10) / PERISCOPE_GROWTH.weekly_pattern[
            weekday_of_day(10, 4)
        ]
        after = PERISCOPE_GROWTH.broadcasts_on(11) / PERISCOPE_GROWTH.weekly_pattern[
            weekday_of_day(11, 4)
        ]
        assert after / before > 1.2

    def test_weekend_peaks(self):
        # Day 1 of the Periscope window is Saturday (first_weekday=Friday).
        saturday = PERISCOPE_GROWTH.broadcasts_on(1)
        monday = PERISCOPE_GROWTH.broadcasts_on(3)
        assert saturday > monday

    def test_viewer_broadcaster_ratio(self):
        for day in (0, 50, 97):
            ratio = PERISCOPE_GROWTH.viewers_on(day) / PERISCOPE_GROWTH.broadcasters_on(day)
            assert ratio == pytest.approx(10.0)

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            PERISCOPE_GROWTH.broadcasts_on(98)
        with pytest.raises(ValueError):
            PERISCOPE_GROWTH.broadcasts_on(-1)

    def test_weekday_of_day(self):
        assert weekday_of_day(0, 4) == 4  # Friday
        assert weekday_of_day(3, 4) == 0  # Monday

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthModel("x", days=0, broadcasts_start=1, broadcasts_end=1,
                        viewers_start=1, viewers_end=1)
        with pytest.raises(ValueError):
            GrowthModel("x", days=10, broadcasts_start=0, broadcasts_end=1,
                        viewers_start=1, viewers_end=1)


class TestDailyArrivals:
    def test_count_near_expectation(self, rng):
        times = daily_arrival_times(rng, expected_count=5000)
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_times_sorted_within_day(self, rng):
        times = daily_arrival_times(rng, expected_count=500)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0
        assert times.max() < SECONDS_PER_DAY

    def test_zero_expectation(self, rng):
        assert len(daily_arrival_times(rng, expected_count=0)) == 0

    def test_diurnal_shape(self, rng):
        times = daily_arrival_times(rng, expected_count=50_000)
        hours = (times // 3600).astype(int)
        night = np.isin(hours, [2, 3, 4]).mean()
        evening = np.isin(hours, [18, 19, 20]).mean()
        assert evening > 2 * night

    def test_negative_expectation_rejected(self, rng):
        with pytest.raises(ValueError):
            daily_arrival_times(rng, expected_count=-1)


class TestBroadcastParamsModel:
    """Calibration of the batched samplers :func:`generate_day_columns` calls."""

    @staticmethod
    def _engagements(model: BroadcastParamsModel, rng, size: int):
        """One batch of audiences, web views and engagement, drawn in the
        order :func:`~repro.workload.trace.generate_day_columns` draws them."""
        audience = model.sample_audiences(rng, size)
        excitement = rng.lognormal(mean=0.0, sigma=0.6, size=size)
        web_views = rng.binomial(audience, model.web_view_fraction)
        hearts, comments, commenters = model.sample_engagements(
            rng, audience, audience - web_views, excitement
        )
        return audience, web_views, hearts, comments, commenters

    def test_durations_85pct_under_10min(self, rng):
        model = BroadcastParamsModel.for_periscope()
        fraction = np.mean(model.sample_durations(rng, 5000) < 600.0)
        assert fraction == pytest.approx(0.85, abs=0.04)

    def test_meerkat_zero_viewers(self, rng):
        model = BroadcastParamsModel.for_meerkat()
        zero = np.mean(model.sample_audiences(rng, 5000) == 0)
        assert zero == pytest.approx(0.60, abs=0.04)

    def test_periscope_audience_mean(self, rng):
        model = BroadcastParamsModel.for_periscope()
        sizes = model.sample_audiences(rng, 20_000)
        # Target ~30 organic (follower joins add the rest toward 36).
        assert 20 < np.mean(sizes) < 55

    def test_audience_capped(self, rng):
        model = BroadcastParamsModel.for_periscope(audience_cap=500)
        assert model.sample_audiences(rng, 2000).max() <= 500

    def test_comment_cap_enforced_in_samples(self, rng):
        model = BroadcastParamsModel.for_periscope()
        _, _, _, comments, commenters = self._engagements(model, rng, 500)
        assert commenters.max() <= model.comment_cap
        assert np.all(comments[commenters == 0] == 0)
        assert np.all(comments >= commenters)

    def test_web_views_subset_of_audience(self, rng):
        model = BroadcastParamsModel.for_periscope()
        audience, web_views, _, _, _ = self._engagements(model, rng, 200)
        assert np.all((0 <= web_views) & (web_views <= audience))

    def test_duration_quantile_analytic(self):
        model = BroadcastParamsModel.for_periscope()
        assert model.expected_duration_quantile(model.duration_median_s) == pytest.approx(0.5)
        assert model.expected_duration_quantile(600.0) == pytest.approx(0.85, abs=0.02)
        assert model.expected_duration_quantile(0.0) == 0.0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sampled_params_always_consistent(self, seed):
        rng = np.random.default_rng(seed)
        model = BroadcastParamsModel.for_periscope()
        durations = model.sample_durations(rng, 50)
        audience, _, hearts, comments, commenters = self._engagements(model, rng, 50)
        assert np.all(durations >= model.min_duration_s)
        assert np.all(audience >= 0)
        assert np.all(hearts >= 0)
        assert np.all(comments >= commenters) and np.all(commenters >= 0)


class TestTraceGenerator:
    """End-to-end trace generation through :func:`generate_trace`."""

    @pytest.fixture(scope="class")
    def tiny_trace(self):
        return generate_trace(TraceConfig.periscope(scale=0.0001, seed=3))

    def test_dataset_days_match_growth(self, tiny_trace):
        assert tiny_trace.dataset.days == 98

    def test_broadcast_count_scales(self, tiny_trace):
        assert tiny_trace.dataset.broadcast_count == pytest.approx(1960, rel=0.15)

    def test_broadcasters_from_pool(self, tiny_trace):
        pool = set(tiny_trace.broadcaster_ids.tolist())
        assert all(r.broadcaster_id in pool for r in tiny_trace.dataset)

    def test_viewers_from_pool(self, tiny_trace):
        pool = set(tiny_trace.viewer_ids.tolist())
        for record in list(tiny_trace.dataset)[:100]:
            assert set(record.viewer_ids.tolist()) <= pool

    def test_graph_present_for_periscope(self, tiny_trace):
        assert tiny_trace.graph is not None
        assert tiny_trace.graph.node_count == tiny_trace.config.total_users

    def test_meerkat_has_no_graph(self):
        trace = generate_trace(TraceConfig.meerkat(scale=0.001, seed=3))
        assert trace.graph is None

    def test_deterministic(self):
        a = generate_trace(TraceConfig.periscope(scale=0.00005, seed=5))
        b = generate_trace(TraceConfig.periscope(scale=0.00005, seed=5))
        assert a.dataset.broadcast_count == b.dataset.broadcast_count
        assert a.dataset.total_views == b.dataset.total_views

    def test_follower_counts_recorded(self, tiny_trace):
        columns = tiny_trace.dataset.columns
        graph = tiny_trace.graph
        expected = [
            graph.follower_count(b) for b in columns.broadcaster_id[:50].tolist()
        ]
        assert columns.broadcaster_followers[:50].tolist() == expected

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(scale=0.0)
        with pytest.raises(ValueError):
            TraceConfig(scale=1.5)
