"""Tests for the analysis utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_table, render_cdf_summary, render_series
from repro.analysis.social_stats import follower_viewer_correlation
from repro.analysis.timeseries import DailySeries
from repro.crawler.dataset import BroadcastDataset, BroadcastRecord
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig


class TestCdf:
    def test_at_and_quantile_consistent(self):
        cdf = Cdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.at(2.0) == 0.5
        assert cdf.at(0.5) == 0.0
        assert cdf.at(10.0) == 1.0
        assert cdf.quantile(0.5) == pytest.approx(2.5)

    def test_fraction_above(self):
        cdf = Cdf(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.fraction_above(2.0) == 0.5

    def test_median_and_mean(self):
        cdf = Cdf(np.array([1.0, 3.0, 5.0]))
        assert cdf.median == 3.0
        assert cdf.mean == 3.0

    def test_points_thinned(self):
        cdf = Cdf(np.arange(1000, dtype=float))
        points = cdf.points(max_points=50)
        assert len(points) == 50
        xs, ys = zip(*points)
        assert list(ys) == sorted(ys)
        assert ys[-1] == 1.0

    def test_points_dedupe_tied_samples(self):
        """Regression: tied samples used to emit duplicate x entries with
        climbing F values — not a function, and a broken step plot."""
        cdf = Cdf(np.array([1.0, 1.0, 1.0, 2.0]))
        assert cdf.points() == [(1.0, 0.75), (2.0, 1.0)]

    def test_points_unique_x_even_when_heavily_tied(self):
        values = np.repeat([1.0, 2.0, 3.0], 100)
        points = Cdf(values).points(max_points=50)
        xs = [x for x, _ in points]
        assert len(xs) == len(set(xs))
        assert points[-1] == (3.0, 1.0)
        for x, y in points:
            assert y == pytest.approx(Cdf(values).at(x))

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_points_form_a_proper_step_function(self, values):
        points = Cdf(np.array(values)).points(max_points=50)
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert len(xs) == len(set(xs))
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_summary_keys(self):
        summary = Cdf(np.arange(100, dtype=float)).summary()
        assert set(summary) >= {"min", "median", "p90", "max", "mean"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf(np.array([]))

    def test_empty_fails_loudly_with_diagnosis(self):
        # A fault sweep delivering zero chunks must fail with a message
        # naming the problem, not a cryptic ZeroDivisionError/IndexError
        # from deep inside an accessor.
        with pytest.raises(ValueError, match="empty sample"):
            Cdf(np.array([]))
        with pytest.raises(ValueError, match="zero observations"):
            Cdf([])

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            Cdf(np.array([1.0])).quantile(1.5)

    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=200
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_monotone(self, values):
        cdf = Cdf(np.array(values))
        probes = np.linspace(min(values) - 1, max(values) + 1, 20)
        levels = [cdf.at(float(p)) for p in probes]
        assert levels == sorted(levels)
        assert all(0.0 <= level <= 1.0 for level in levels)


class TestDailySeries:
    def test_growth_factor(self):
        values = np.concatenate([np.full(7, 100.0), np.full(80, 250.0), np.full(7, 400.0)])
        series = DailySeries(values)
        assert series.growth_factor() == pytest.approx(4.0)

    def test_growth_needs_enough_days(self):
        with pytest.raises(ValueError):
            DailySeries(np.arange(5.0)).growth_factor()

    def test_weekly_averages(self):
        # 14 days starting Monday: weekends double.
        values = np.array([1, 1, 1, 1, 1, 2, 2] * 2, dtype=float)
        series = DailySeries(values)
        weekly = series.weekly_averages(first_weekday=0)
        assert weekly[5] == 2.0
        assert weekly[0] == 1.0
        assert series.weekend_weekday_ratio(first_weekday=0) == 2.0

    def test_ratio_to(self):
        viewers = DailySeries(np.array([100.0, 200.0]))
        broadcasters = DailySeries(np.array([10.0, 20.0]))
        assert list(viewers.ratio_to(broadcasters)) == [10.0, 10.0]

    def test_ratio_length_mismatch(self):
        with pytest.raises(ValueError):
            DailySeries(np.array([1.0])).ratio_to(DailySeries(np.array([1.0, 2.0])))

    def test_zero_start_growth_undefined(self):
        with pytest.raises(ValueError):
            DailySeries(np.zeros(20)).growth_factor()


class TestReport:
    def test_format_table_alignment(self):
        rows = {
            "Periscope": {"broadcasts": 19_600_000, "views": 705_000_000},
            "Meerkat": {"broadcasts": 164_000, "views": 3_800_000},
        }
        text = format_table(rows, title="Table 1", row_header="app")
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "Periscope" in text
        assert "19.60M" in text
        assert "164.0K" in text

    def test_format_table_handles_missing_columns(self):
        rows = {"a": {"x": 1}, "b": {"y": 2}}
        text = format_table(rows)
        assert "x" in text and "y" in text

    def test_format_table_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table({})

    def test_render_cdf_summary(self):
        text = render_cdf_summary({"lengths": Cdf(np.arange(10.0) + 1)}, title="F3")
        assert "lengths" in text
        assert "median" in text

    def test_render_series_thinning(self):
        text = render_series({"x": list(range(100))}, max_points=5)
        assert text.count("\n") <= 8

    def test_render_series_uneven_lengths(self):
        text = render_series({"long": list(range(10)), "short": [1, 2]})
        assert "long" in text and "short" in text

    def test_render_series_empty_rejected(self):
        with pytest.raises(ValueError):
            render_series({})


def _scatter_dataset(followers: list[int], viewers: list[int]) -> BroadcastDataset:
    """One broadcast per (followers, viewers) point; the viewers are web views."""
    records = [
        BroadcastRecord(
            broadcast_id=i,
            broadcaster_id=i,
            app_name="Periscope",
            start_time=float(i),
            duration_s=60.0,
            viewer_ids=np.array([], dtype=np.int64),
            web_views=views,
            heart_count=0,
            comment_count=0,
            commenter_count=0,
            broadcaster_followers=count,
        )
        for i, (count, views) in enumerate(zip(followers, viewers))
    ]
    return BroadcastDataset.from_records("Periscope", 1, records)


def _oracle_average_ranks(values: list[int]) -> np.ndarray:
    """Each value's 0-based rank: the values below it plus half its other ties."""
    return np.array(
        [
            sum(other < value for other in values)
            + (sum(other == value for other in values) - 1) / 2
            for value in values
        ]
    )


class TestRankCorrelation:
    def test_ties_take_their_average_rank(self):
        followers = [0, 0, 0, 5, 5, 9, 9, 9, 9, 1, 0, 5]
        viewers = [3, 3, 1, 1, 1, 7, 0, 3, 3, 2, 7, 1]
        expected = np.corrcoef(
            _oracle_average_ranks(followers), _oracle_average_ranks(viewers)
        )[0, 1]
        assert follower_viewer_correlation(_scatter_dataset(followers, viewers)) == expected

    def test_row_order_does_not_move_the_correlation(self):
        dataset = generate_trace(TraceConfig.periscope(scale=0.0001, seed=17)).dataset
        expected = follower_viewer_correlation(dataset)
        rng = np.random.default_rng(3)
        for _ in range(3):
            permuted = dataset.columns.take(rng.permutation(len(dataset)))
            shuffled = BroadcastDataset(dataset.app_name, dataset.days, permuted)
            assert follower_viewer_correlation(shuffled) == expected
