"""Tests for the closed-loop serve-bench driver."""

from __future__ import annotations

import pytest

from repro.experiments.registry import ExperimentResult
from repro.experiments.serving import flash_config
from repro.obs.metrics import MetricsRegistry
from repro.service.loadgen import (
    FlashCrowdConfig,
    LoadGenConfig,
    ServeBenchReport,
    run_serve_bench,
)

TOY = LoadGenConfig(n_clients=8, duration_s=20.0)
TOY_FLASH = LoadGenConfig(
    n_clients=8,
    duration_s=25.0,
    flash_crowd=FlashCrowdConfig(
        start_s=8.0, duration_s=10.0, extra_clients=100, think_time_s=0.2
    ),
)


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            LoadGenConfig(n_clients=0)
        with pytest.raises(ValueError):
            LoadGenConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            FlashCrowdConfig(
                start_s=20.0, duration_s=20.0, extra_clients=0, think_time_s=0.25
            )


class TestBaseline:
    def test_baseline_sheds_nothing_and_errors_nothing(self):
        report = run_serve_bench(seed=2016, config=TOY)
        assert report.requests > 0
        assert report.ok > 0
        assert report.shed == 0
        assert report.unavailable == 0
        assert report.errors == 0
        assert report.shed_rate == 0.0
        assert report.error_rate == 0.0

    def test_latency_summary_is_populated(self):
        report = run_serve_bench(seed=2016, config=TOY)
        assert report.latency_count > 0
        assert 0.0 < report.latency_p50_s <= report.latency_p99_s
        assert report.latency_histogram
        assert sum(report.latency_histogram.values()) > 0

    def test_cache_serves_some_lists(self):
        report = run_serve_bench(seed=2016, config=TOY)
        assert report.cache_served > 0


class TestDeterminism:
    def test_same_seed_identical_report(self):
        """Same seed ⇒ identical report, down to histogram bucket counts."""
        first = run_serve_bench(seed=2016, config=TOY)
        second = run_serve_bench(seed=2016, config=TOY)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_different_history(self):
        first = run_serve_bench(seed=2016, config=TOY)
        second = run_serve_bench(seed=2017, config=TOY)
        assert first.to_dict() != second.to_dict()

    def test_flash_crowd_run_is_deterministic(self):
        first = run_serve_bench(seed=5, config=TOY_FLASH)
        second = run_serve_bench(seed=5, config=TOY_FLASH)
        assert first.to_dict() == second.to_dict()


class TestFlashCrowd:
    def test_admission_engages_under_flash_crowd(self):
        report = run_serve_bench(seed=2016, config=TOY_FLASH)
        assert report.shed > 0
        assert report.shed_by_reason  # per-class/per-reason breakdown present
        assert report.retries > 0  # clients retried their 503s
        # Shedding protects the backend: admitted requests still succeed.
        assert report.unavailable == 0
        assert report.errors == 0

    def test_admission_off_floods_the_queue(self):
        guarded = run_serve_bench(seed=2016, config=TOY_FLASH, admission=True)
        unguarded = run_serve_bench(seed=2016, config=TOY_FLASH, admission=False)
        assert unguarded.shed == 0
        # Without the door check every request queues: tail latency blows up
        # past the admission-controlled run's.
        assert unguarded.latency_p99_s > guarded.latency_p99_s

    def test_report_renders(self):
        report = run_serve_bench(seed=2016, config=TOY)
        text = report.render()
        assert "serve-bench" in text
        assert "p50" in text
        assert isinstance(report, ServeBenchReport)


#: ``fingerprint`` of the ``serving`` experiment's flash run at seed 2016:
#: "data" covers its report and the run's whole metrics snapshot (every
#: ``service.*`` and ``engine.span.*`` histogram included), "text" the
#: rendered report.
SERVING_FLASH_DIGESTS = {
    "data": "f7587fadfc14c2227225e1738a26753efa30d9881ad932426847ce26062cf300",
    "text": "036d6e3b9036b4fd6f6a1282358c7f460e0965a11654ca536ba5566804c36d5c",
}


class TestWholeOutputPin:
    def test_flash_report_and_metrics_pinned(self, golden):
        """Checked as GOLDEN.json checks an experiment: both digests on the
        recorded numpy version, the text alone (with a warning) on another."""
        metrics = MetricsRegistry()
        report = run_serve_bench(seed=2016, config=flash_config(), metrics=metrics)
        result = ExperimentResult(
            "serving-flash",
            "serving experiment, flash posture",
            {"report": report.to_dict(), "metrics": metrics.snapshot()},
            report.render(),
        )
        recorded = {
            "numpy": golden.load_golden()["numpy"],
            "experiments": {"serving-flash": SERVING_FLASH_DIGESTS},
        }
        assert golden.check_experiments(recorded, {"serving-flash": result}) == []
