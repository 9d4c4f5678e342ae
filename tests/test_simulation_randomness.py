"""Tests for seeded random streams."""

from __future__ import annotations

import numpy as np

from repro.simulation.randomness import RandomStreams, substream_seed


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(1, "a") == substream_seed(1, "a")

    def test_varies_with_name(self):
        assert substream_seed(1, "a") != substream_seed(1, "b")

    def test_varies_with_root(self):
        assert substream_seed(1, "a") != substream_seed(2, "a")

    def test_fits_in_63_bits(self):
        for name in ("x", "y", "a/very/long/name"):
            assert 0 <= substream_seed(12345, name) < 2**63


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(7)
        assert streams.get("workload") is streams.get("workload")

    def test_different_names_are_independent(self):
        streams = RandomStreams(7)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        a = RandomStreams(7).get("x").random(10)
        b = RandomStreams(7).get("x").random(10)
        assert np.allclose(a, b)

    def test_extra_draws_on_one_stream_do_not_shift_another(self):
        baseline = RandomStreams(7)
        shifted = RandomStreams(7)
        shifted.get("noise").random(1000)  # extra consumption elsewhere
        assert np.allclose(
            baseline.get("target").random(10), shifted.get("target").random(10)
        )

    def test_spawn_creates_independent_child(self):
        parent = RandomStreams(7)
        child = parent.spawn("worker")
        assert not np.allclose(
            parent.get("x").random(5), child.get("x").random(5)
        )

    def test_spawn_is_deterministic(self):
        a = RandomStreams(7).spawn("w").get("x").random(5)
        b = RandomStreams(7).spawn("w").get("x").random(5)
        assert np.allclose(a, b)
