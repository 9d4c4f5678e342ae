"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.metrics_scenario import run_metrics_scenario
from repro.experiments.registry import ExperimentResult
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    StreamingQuantile,
)
from repro.simulation.engine import Simulator


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_cannot_decrease(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1.0)


class TestGauge:
    def test_tracks_value_and_excursions(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.set(-2.0)
        gauge.inc(3.0)
        assert gauge.value == 1.0
        assert gauge.min == -2.0
        assert gauge.max == 5.0

    def test_unset_gauge_reports_zeroes(self):
        gauge = Gauge("g")
        assert gauge.value == 0.0
        assert gauge.min == 0.0
        assert gauge.max == 0.0


class TestHistogram:
    def test_count_sum_mean_min_max(self):
        hist = Histogram("h")
        for value in [0.1, 0.2, 0.3]:
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.6)
        assert hist.mean == pytest.approx(0.2)
        assert hist.to_dict()["min"] == pytest.approx(0.1)
        assert hist.to_dict()["max"] == pytest.approx(0.3)

    def test_bucket_counts_are_cumulative(self):
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for value in [0.5, 1.5, 3.0, 100.0]:
            hist.observe(value)
        buckets = hist.bucket_counts()
        assert buckets == {"1": 1, "2": 2, "4": 3, "inf": 4}

    def test_value_on_bucket_boundary_counts_le(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        hist.observe(1.0)
        assert hist.bucket_counts()["1"] == 1

    def test_bad_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(MetricError):
            Histogram("h", buckets=[1.0, 1.0])

    def test_quantiles_reasonable(self):
        hist = Histogram("h")
        for i in range(1000):
            hist.observe(i / 1000.0)
        assert hist.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert hist.quantile(0.99) == pytest.approx(0.99, abs=0.05)


class TestStreamingQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(StreamingQuantile().quantile(0.5))

    def test_bounded_memory(self):
        sketch = StreamingQuantile(max_size=64)
        for i in range(100_000):
            sketch.observe(float(i))
        assert len(sketch._buffer) <= 64
        assert sketch.quantile(0.5) == pytest.approx(50_000, rel=0.1)

    def test_deterministic(self):
        a, b = StreamingQuantile(max_size=32), StreamingQuantile(max_size=32)
        for i in range(10_000):
            a.observe(float(i % 997))
            b.observe(float(i % 997))
        assert a._buffer == b._buffer


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_snapshot_sections(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["c"]["value"] == 1.0
        assert snap["gauges"]["g"]["value"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_clock_follows_simulator(self):
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        simulator.schedule(3.5, lambda: None)
        simulator.run()
        assert registry.now() == 3.5
        assert registry.snapshot()["sim_time_s"] == 3.5

    def test_collectors_run_at_snapshot(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda reg: reg.counter("late").inc(7))
        assert registry.snapshot()["counters"]["late"]["value"] == 7.0

    def test_as_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert json.loads(registry.as_json())["counters"]["c"]["value"] == 1.0


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NullRegistry()
        assert not null.enabled
        null.counter("a").inc()
        null.gauge("b").set(9.0)
        null.histogram("c").observe(1.0)
        assert null.counter("a").value == 0.0
        assert null.snapshot()["counters"] == {}

    def test_shared_singleton_default(self):
        simulator = Simulator()
        assert simulator.metrics is NULL_REGISTRY
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert NULL_REGISTRY.snapshot()["counters"] == {}


class TestEngineInstrumentation:
    def test_span_counts_keyed_by_label_prefix(self):
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        for i in range(5):
            simulator.schedule(float(i), lambda: None, label=f"poll:{i}")
        simulator.schedule(0.5, lambda: None, label="upload:1")
        simulator.run()
        snap = registry.snapshot()
        assert snap["counters"]["engine.span.poll.events"]["value"] == 5.0
        assert snap["counters"]["engine.span.upload.events"]["value"] == 1.0
        assert snap["counters"]["engine.events_processed"]["value"] == 6.0

    def test_inter_event_gaps_recorded(self):
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        for i in range(4):
            simulator.schedule_at(i * 2.0, lambda: None, label="tick:0")
        simulator.run()
        hist = registry.snapshot()["histograms"]["engine.span.tick.gap_s"]
        assert hist["count"] == 3
        assert hist["mean"] == pytest.approx(2.0)

    def test_processed_counter_and_queue_depth_published(self):
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run(until=1.5)
        snap = registry.snapshot()
        assert snap["counters"]["engine.events_processed"]["value"] == 1.0
        assert snap["gauges"]["engine.queue_depth"]["value"] == 1.0
        assert [name for name in snap["counters"] if name.startswith("engine.events_")] == [
            "engine.events_processed"
        ]

    def test_snapshot_is_idempotent(self):
        registry = MetricsRegistry()
        simulator = Simulator(metrics=registry)
        simulator.schedule(1.0, lambda: None, label="a:1")
        simulator.run()
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second


class TestDeterminism:
    def test_identical_runs_identical_snapshots(self):
        first = run_metrics_scenario(seed=11)
        second = run_metrics_scenario(seed=11)
        assert first.as_json() == second.as_json()

    def test_different_seed_changes_something(self):
        first = run_metrics_scenario(seed=11)
        second = run_metrics_scenario(seed=12)
        assert first.as_json() != second.as_json()


#: ``fingerprint`` of ``repro metrics`` at its default seed 7: "data" is the
#: scenario's registry snapshot, "text" the JSON the command prints.
METRICS_DIGESTS = {
    "data": "c95368a36aeb88787d7a8f92429e0b4f89bee5fcd1a74d13f274ca2b2d59cf67",
    "text": "2b95a9e734f0cbf3b3c2e6d462ea947e108f54ea27c65dc87426cbe8be4c6b49",
}


class TestWholeOutputPin:
    def test_metrics_snapshot_pinned(self, golden):
        """Checked as GOLDEN.json checks an experiment: both digests on the
        recorded numpy version, the text alone (with a warning) on another."""
        registry = run_metrics_scenario(seed=7)
        result = ExperimentResult(
            "metrics", "repro metrics", registry.snapshot(), registry.as_json()
        )
        recorded = {
            "numpy": golden.load_golden()["numpy"],
            "experiments": {"metrics": METRICS_DIGESTS},
        }
        assert golden.check_experiments(recorded, {"metrics": result}) == []


class TestScenarioCoverage:
    def test_counters_from_all_subsystems(self):
        snap = run_metrics_scenario(seed=7).snapshot()
        counters = snap["counters"]
        for prefix in ("engine.", "cdn.", "platform.", "crawler.", "client."):
            assert any(name.startswith(prefix) and c["value"] > 0
                       for name, c in counters.items()), f"no live {prefix} counter"


class TestCli:
    def test_repro_metrics_subcommand(self, capsys):
        from repro.cli import main

        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        snap = json.loads(out)
        counters = snap["counters"]
        for prefix in ("engine.", "cdn.", "platform.", "crawler."):
            assert any(name.startswith(prefix) for name in counters), prefix

    def test_metrics_out_file_is_the_snapshot(self, capsys, tmp_path):
        """``repro metrics --out FILE`` is how a snapshot is kept for
        offline diffing: the file holds exactly what stdout printed, and
        that is the scenario's registry snapshot."""
        from repro.cli import main

        path = tmp_path / "metrics.json"
        assert main(["metrics", "--out", str(path)]) == 0
        text = path.read_text(encoding="utf-8")
        assert text == capsys.readouterr().out
        assert json.loads(text) == run_metrics_scenario(seed=7).snapshot()

    def test_metrics_out_file_is_overwritten(self, capsys, tmp_path):
        """Keeping a snapshot twice in one FILE leaves one snapshot, not two
        concatenated documents ``json.loads`` rejects."""
        from repro.cli import main

        path = tmp_path / "metrics.json"
        for _ in range(2):
            assert main(["metrics", "--out", str(path)]) == 0
        assert json.loads(path.read_text(encoding="utf-8")) == (
            run_metrics_scenario(seed=7).snapshot()
        )
