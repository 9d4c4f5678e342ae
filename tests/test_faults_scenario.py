"""End-to-end chaos-scenario tests: the resilient posture must strictly
dominate the naive one under injected faults, via the real mechanisms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.registry import run_experiment
from repro.faults.scenario import build_fault_plan, run_chaos_pair, run_chaos_scenario


class TestBuildFaultPlan:
    def test_zero_intensity_empty_without_consuming_randomness(self):
        rng = np.random.default_rng(4)
        plan = build_fault_plan(
            rng, horizon_s=240.0, intensity=0.0, primary_edge="sea", origin="wow"
        )
        assert len(plan) == 0
        assert rng.random() == np.random.default_rng(4).random()

    def test_backbone_scales_with_intensity(self):
        mild = build_fault_plan(
            np.random.default_rng(4), 240.0, 0.5, primary_edge="sea", origin="wow"
        )
        harsh = build_fault_plan(
            np.random.default_rng(4), 240.0, 1.5, primary_edge="sea", origin="wow"
        )
        assert len(mild) >= 5  # the deterministic backbone at least
        assert harsh.total_fault_time_s > mild.total_fault_time_s

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            build_fault_plan(
                np.random.default_rng(4), 240.0, -1.0, primary_edge="s", origin="w"
            )


class TestChaosScenario:
    def test_resilient_dominates_naive_at_full_intensity(self):
        naive, resilient = run_chaos_pair(seed=7, fault_intensity=1.0)
        assert naive.faults_injected == resilient.faults_injected > 0
        assert resilient.dominates(naive)

    def test_resilience_mechanisms_actually_fire(self):
        naive, resilient = run_chaos_pair(seed=7, fault_intensity=1.0)
        # The dominance must come from the mechanisms, not from luck: the
        # resilient run visibly retried, failed over, and served stale.
        assert resilient.viewer_retries > 0
        assert resilient.viewer_failovers > 0
        assert resilient.crawler_retries > 0
        assert resilient.stale_served > 0
        # The naive posture has none of them (they are not configured).
        assert naive.viewer_retries == 0
        assert naive.viewer_failovers == 0
        assert naive.crawler_retries == 0
        # Both postures saw the same outage (same plan, same seed).
        assert naive.availability == pytest.approx(resilient.availability)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_chaos_scenario(fault_intensity=-0.5)


@pytest.mark.tier2
class TestFaultSweep:
    def test_resilient_dominates_at_every_swept_intensity(self):
        result = run_experiment("faultsweep", seed=7)
        assert result.data["dominated_everywhere"]
        assert result.data["baseline_identical"]
        assert len(result.data["points"]) == 4
