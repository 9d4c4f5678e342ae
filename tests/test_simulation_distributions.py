"""Tests (incl. property-based) for distribution helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.distributions import (
    bounded_pareto,
    guide_draw,
    guide_table,
    lognormal_from_median,
    zipf_weights,
)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class TestLognormalFromMedian:
    def test_median_is_respected(self, rng):
        samples = lognormal_from_median(rng, median=100.0, sigma=1.0, size=20_000)
        assert np.median(samples) == pytest.approx(100.0, rel=0.05)

    def test_zero_sigma_is_degenerate(self, rng):
        samples = lognormal_from_median(rng, median=50.0, sigma=0.0, size=100)
        assert np.allclose(samples, 50.0)

    def test_rejects_nonpositive_median(self, rng):
        with pytest.raises(ValueError):
            lognormal_from_median(rng, median=0.0, sigma=1.0)

    def test_rejects_negative_sigma(self, rng):
        with pytest.raises(ValueError):
            lognormal_from_median(rng, median=1.0, sigma=-0.1)

    @given(median=st.floats(0.1, 1e4), sigma=st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_samples_always_positive(self, median, sigma):
        rng = np.random.default_rng(0)
        samples = lognormal_from_median(rng, median, sigma, size=50)
        assert np.all(samples > 0)


class TestBoundedPareto:
    def test_samples_within_bounds(self, rng):
        samples = bounded_pareto(rng, alpha=0.8, lower=1.0, upper=1000.0, size=10_000)
        assert np.all(samples >= 1.0)
        assert np.all(samples <= 1000.0)

    def test_heavier_tail_with_smaller_alpha(self, rng):
        light = bounded_pareto(rng, alpha=2.5, lower=1.0, upper=1e5, size=20_000)
        heavy = bounded_pareto(rng, alpha=0.5, lower=1.0, upper=1e5, size=20_000)
        assert np.mean(heavy) > np.mean(light)

    def test_rejects_bad_bounds(self, rng):
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=1.0, lower=10.0, upper=5.0)
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=1.0, lower=0.0, upper=5.0)

    def test_rejects_bad_alpha(self, rng):
        with pytest.raises(ValueError):
            bounded_pareto(rng, alpha=0.0, lower=1.0, upper=5.0)

    @given(
        alpha=st.floats(0.2, 3.0),
        lower=st.floats(0.5, 10.0),
        spread=st.floats(1.5, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounds_hold_for_any_parameters(self, alpha, lower, spread):
        rng = np.random.default_rng(1)
        upper = lower * spread
        samples = bounded_pareto(rng, alpha, lower, upper, size=200)
        assert np.all((samples >= lower) & (samples <= upper))


class TestZipf:
    def test_weights_sum_to_one(self):
        assert zipf_weights(100, 1.0).sum() == pytest.approx(1.0)

    def test_weights_decrease_with_rank(self):
        weights = zipf_weights(50, 0.9)
        assert np.all(np.diff(weights) < 0)

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert np.allclose(weights, 0.1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(10, -1.0)


def _monotone_cdf(n: int, seed: int, tie_prob: float, skew: float) -> np.ndarray:
    """A random CDF over ``n`` entries ending at exactly 1.0: skewed
    weights, each zeroed with ``tie_prob`` (a run of zeros is a run of
    tied entries)."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n) ** skew
    weights[rng.random(n) < tie_prob] = 0.0
    weights[-1] = max(weights[-1], 1e-12)  # at least one positive weight
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def _probes(cdf: np.ndarray, k: int) -> np.ndarray:
    """Every draw that can land on a bucket or entry boundary: 0, the
    largest double below 1, each ``j / K`` and each entry, with their
    neighbours, all inside ``[0, 1)``."""
    marks = np.concatenate([np.arange(k) / k, cdf])
    below, above = np.nextafter(marks, 0.0), np.nextafter(marks, 2.0)
    probes = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], marks, below, above])
    return probes[(probes >= 0.0) & (probes < 1.0)]


class TestGuideTable:
    """``guide_draw`` is ``np.searchsorted(cdf, u)`` (side left), the oracle."""

    @given(
        n=st.integers(1, 100_000),
        seed=st.integers(0, 2**32 - 1),
        tie_prob=st.sampled_from([0.0, 0.3, 0.75]),
        skew=st.sampled_from([1.0, 4.0, 12.0]),
    )
    @settings(max_examples=40, deadline=None)
    @example(n=1, seed=0, tie_prob=0.0, skew=1.0)
    @example(n=100_000, seed=1, tie_prob=0.75, skew=12.0)
    def test_draws_equal_searchsorted_at_every_boundary(self, n, seed, tie_prob, skew):
        cdf = _monotone_cdf(n, seed, tie_prob, skew)
        table = guide_table(cdf)
        k = len(table) - 1
        assert k >= 2 * n and k & (k - 1) == 0  # least power of two >= 2N
        assert k < 4 * n
        assert np.array_equal(table[:k], np.searchsorted(cdf, np.arange(k) / k))
        u = _probes(cdf, k)
        assert np.array_equal(guide_draw(cdf, table, u), np.searchsorted(cdf, u))

    def test_pass_count_is_the_fullest_bucket(self):
        # K = 16 buckets of 1/16: three entries in bucket 0, one in
        # bucket 8; the final 1.0 lies past every bucket.
        table = guide_table(np.array([0.0, 0.01, 0.02, 0.5, 1.0]))
        assert len(table) - 1 == 16
        assert table[-1] == 3

    @pytest.mark.parametrize(
        "cdf", [[], [0.2, 0.9], [-0.1, 1.0], [0.5, 1.0 + 1e-15]], ids=str
    )
    def test_rejects_a_cdf_not_ending_at_one(self, cdf):
        with pytest.raises(ValueError):
            guide_table(np.array(cdf, dtype=float))
