"""Tests for the interactivity study and the growth projection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.interactivity import InteractivityStudy, TierInteractivity
from repro.core.projection import CapacityExceeded, GrowthProjection


class TestInteractivityStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return InteractivityStudy(seed=31)

    def test_evaluate_tier_basics(self, study):
        result = study.evaluate_tier("rtmp", video_lag_s=1.4)
        assert isinstance(result, TierInteractivity)
        assert result.mean_heart_staleness_s > 1.4  # lag + reaction + channel
        assert 0.0 <= result.misattribution_rate <= 1.0

    def test_hls_feedback_far_staler_than_rtmp(self, study):
        rtmp = study.evaluate_tier("rtmp", 1.4)
        hls = study.evaluate_tier("hls", 11.7)
        assert hls.mean_heart_staleness_s > rtmp.mean_heart_staleness_s + 8.0
        assert hls.misattribution_rate > rtmp.misattribution_rate

    def test_hls_hearts_mostly_misattributed(self, study):
        """With ~12 s lag and 8 s scenes, nearly every heart lands in the
        wrong scene — the paper's 'delayed applause' problem."""
        hls = study.evaluate_tier("hls", 11.7)
        assert hls.misattribution_rate > 0.95
        rtmp = study.evaluate_tier("rtmp", 1.4)
        assert rtmp.misattribution_rate < 0.7

    def test_poll_participation_collapses_beyond_window(self, study):
        fast = study.evaluate_tier("fast", 1.0)
        slow = study.evaluate_tier("slow", 20.0)  # beyond the 15 s window
        assert fast.poll_participation > 0.95
        assert slow.poll_participation == 0.0

    def test_lag_sweep_monotone(self, study):
        sweep = study.lag_sweep([0.5, 2.0, 6.0, 12.0])
        rates = [sweep[lag].misattribution_rate for lag in (0.5, 2.0, 6.0, 12.0)]
        assert rates == sorted(rates)

    def test_run_uses_measured_breakdowns(self):
        study = InteractivityStudy(seed=31, samples_per_tier=500)
        results = study.run(repetitions=2, duration_s=60.0)
        assert results["hls"].video_lag_s > results["rtmp"].video_lag_s
        assert results["hls"].misattribution_rate > results["rtmp"].misattribution_rate

    def test_evaluate_tier_ignores_the_hash_seed(self):
        """``str`` hashes are salted per process, so a tier's stream must
        not come from ``hash(tier)``: two interpreters with different
        ``PYTHONHASHSEED`` values give the same result."""
        code = (
            "from repro.core.interactivity import InteractivityStudy\n"
            "print(repr(InteractivityStudy(seed=31).evaluate_tier('hls', 11.7)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            process = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert process.returncode == 0, process.stderr
            outputs.append(process.stdout)
        assert outputs[0] == outputs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            InteractivityStudy(scene_length_s=0.0)
        study = InteractivityStudy()
        with pytest.raises(ValueError):
            study.evaluate_tier("x", -1.0)


class TestGrowthProjection:
    @pytest.fixture
    def projection(self):
        return GrowthProjection(fleet_servers=500, viewers_per_stream=30.0)

    def test_low_volume_gets_small_chunks(self, projection):
        point = projection.operating_point(1000)
        assert point.chunk_duration_s == min(projection.chunk_options_s)

    def test_chunk_size_grows_with_volume(self, projection):
        counts = [1_000, 10_000, 20_000, 30_000]
        points = projection.sweep(counts)
        chunks = [p.chunk_duration_s for p in points]
        assert chunks == sorted(chunks)
        assert chunks[-1] > chunks[0]

    def test_delay_grows_with_volume(self, projection):
        """The abstract's claim: volume drives delivery latency."""
        points = projection.sweep([1_000, 20_000, 30_000])
        delays = [p.projected_hls_delay_s for p in points]
        assert delays == sorted(delays)
        assert delays[-1] > 2 * delays[0]

    def test_utilization_within_budget(self, projection):
        for point in projection.sweep([1_000, 15_000, 30_000]):
            assert 0.0 < point.fleet_utilization <= 1.0

    def test_capacity_ceiling(self, projection):
        ceiling = projection.max_streams()
        assert projection.operating_point(ceiling).fleet_utilization <= 1.0
        with pytest.raises(CapacityExceeded):
            projection.operating_point(int(ceiling * 1.2))

    def test_bigger_fleet_delays_the_wall(self):
        small = GrowthProjection(fleet_servers=100)
        large = GrowthProjection(fleet_servers=1000)
        assert large.max_streams() > 5 * small.max_streams()

    def test_periscope_3s_regime(self, projection):
        """Somewhere on the growth curve, 3 s chunks are exactly the
        cheapest feasible choice — Periscope's 2015 operating point."""
        counts = np.linspace(1000, projection.max_streams(), 60).astype(int)
        chunks = {projection.operating_point(int(c)).chunk_duration_s for c in counts}
        assert 3.0 in chunks

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthProjection(fleet_servers=0)
        with pytest.raises(ValueError):
            GrowthProjection().operating_point(0)
