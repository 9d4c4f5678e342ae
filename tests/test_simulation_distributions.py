"""Tests (incl. property-based) for distribution helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.distributions import (
    bounded_pareto,
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
