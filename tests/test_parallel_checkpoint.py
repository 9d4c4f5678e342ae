"""Crash-resilience suite: checkpointing, fault injection, recovery.

The tentpole guarantee extends schedule-independence to *failure*
independence: a generation run that loses workers, blows deadlines, or
is interrupted and resumed must still produce a byte-identical merged
dataset.  Every recovery path here is driven by the deterministic
pipeline fault harness (``REPRO_TRACE_FAULTS``) rather than luck.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.crawler.arrayfile import read_arrays, staging_path, write_arrays
from repro.crawler.storage import dataset_to_bytes
from repro.obs import MetricsRegistry
from repro.parallel import (
    PipelineFault,
    RunCheckpoint,
    RunDirError,
    generate_trace,
    parse_fault_plan,
    plan_shards,
    read_manifest,
)
from repro.parallel import generate as generate_module
from repro.parallel.faults import FAULTS_ENV, fault_plan_from_env, inject_persist_fault
from repro.workload.trace import TraceConfig

SCALE = 0.0001
SEED = 17


def _config(**overrides) -> TraceConfig:
    overrides.setdefault("workers", 2)
    overrides.setdefault("shards", 4)
    return TraceConfig.periscope(scale=SCALE, seed=SEED, **overrides)


def _generate_bytes(config: TraceConfig, registry=None, **kwargs) -> bytes:
    # An empty MetricsRegistry is falsy (len == 0), so test `is None`.
    kwargs.setdefault("registry", MetricsRegistry() if registry is None else registry)
    return dataset_to_bytes(generate_trace(config, **kwargs).dataset)


def _counter(registry: MetricsRegistry, name: str) -> float:
    return registry.snapshot()["counters"].get(name, {}).get("value", 0.0)


@pytest.fixture(scope="module")
def reference_bytes() -> bytes:
    """Clean serial generation: the byte-identity reference."""
    return _generate_bytes(_config(workers=1))


class TestFaultPlanParsing:
    def test_basic_specs(self):
        plan = parse_fault_plan("kill-worker@shard=3,truncate-shard@shard=5&attempt=1")
        assert plan == (
            PipelineFault(kind="kill-worker", shard_id=3, attempt=0),
            PipelineFault(kind="truncate-shard", shard_id=5, attempt=1),
        )

    def test_wildcards(self):
        (fault,) = parse_fault_plan("hang@shard=*&attempt=*")
        assert fault.shard_id is None and fault.attempt is None
        assert fault.matches(7, 3) and fault.matches(0, 0)

    def test_default_attempt_is_first_try_only(self):
        (fault,) = parse_fault_plan("fail@shard=2")
        assert fault.matches(2, 0) and not fault.matches(2, 1)

    def test_empty_plan(self):
        assert parse_fault_plan("") == ()
        assert parse_fault_plan(" , ") == ()

    @pytest.mark.parametrize(
        "text, match",
        [
            ("explode@shard=1", "unknown pipeline fault kind 'explode'"),
            ("kill-worker", "expected 'kind@shard=N"),
            ("fail@attempt=1", "missing shard=N"),
            ("fail@shard=x", "must be an integer or '\\*'"),
            ("fail@shard=-1", "must be >= 0"),
            ("fail@shard=1&shard=2", "got field"),
            ("fail@shard=1&speed=9", "got field"),
        ],
    )
    def test_malformed_specs_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_fault_plan(text)

    def test_env_error_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "kaboom@shard=1")
        with pytest.raises(ValueError, match=FAULTS_ENV):
            fault_plan_from_env()


class TestEnvValidation:
    def test_env_checked_before_any_precompute(self, monkeypatch):
        """A malformed fault plan fails generate_trace up front, not after
        the graph build."""

        def poisoned(config):
            raise AssertionError("graph build ran before env validation")

        monkeypatch.setattr(generate_module, "build_follow_graph", poisoned)
        monkeypatch.setenv(FAULTS_ENV, "kaboom@shard=1")
        with pytest.raises(ValueError, match=FAULTS_ENV):
            generate_trace(_config())


class TestRunCheckpoint:
    KEY = "cfg-key"

    def _specs(self, shards: int = 4):
        return plan_shards(8, shards=shards, workers=1)

    def _valid_shard(self, checkpoint: RunCheckpoint, shard_id: int):
        temp = staging_path(checkpoint.shard_path(shard_id))
        write_arrays(temp, {"x": np.arange(16, dtype=np.int64)}, meta={"n_days": 1})
        checkpoint.publish_shard(shard_id, temp)

    def test_fresh_dir_journals_progress(self, tmp_path):
        checkpoint = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        assert checkpoint.resumed == 0 and checkpoint.done_shards == frozenset()
        self._valid_shard(checkpoint, 0)
        self._valid_shard(checkpoint, 2)
        manifest = read_manifest(tmp_path)
        assert manifest["done"] == [0, 2]
        assert manifest["cache_key"] == self.KEY
        assert not list(tmp_path.glob("*.tmp*"))

    def test_reopen_resumes_done_shards(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        self._valid_shard(first, 1)
        second = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        assert second.resumed == 1
        assert second.done_shards == frozenset({1})

    def test_existing_run_without_resume_rejected(self, tmp_path):
        RunCheckpoint.open(tmp_path, self.KEY, self._specs()).flush()
        with pytest.raises(RunDirError, match="already contains a run"):
            RunCheckpoint.open(tmp_path, self.KEY, self._specs(), resume=False)

    def test_cache_key_mismatch_rejected(self, tmp_path):
        RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        with pytest.raises(RunDirError, match="different config"):
            RunCheckpoint.open(tmp_path, "other-key", self._specs())

    def test_shard_plan_mismatch_rejected(self, tmp_path):
        RunCheckpoint.open(tmp_path, self.KEY, self._specs(shards=4))
        with pytest.raises(RunDirError, match="different shards"):
            RunCheckpoint.open(tmp_path, self.KEY, self._specs(shards=2))

    def test_corrupt_done_shard_demoted_to_pending(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        self._valid_shard(first, 0)
        self._valid_shard(first, 1)
        # Flip a data byte in shard 1: structurally valid, checksum-dead.
        inject_persist_fault(
            parse_fault_plan("corrupt-shard@shard=1"), 1, 0, first.shard_path(1)
        )
        second = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        assert second.done_shards == frozenset({0})
        assert not second.shard_path(1).exists()

    def test_truncated_done_shard_demoted_to_pending(self, tmp_path):
        first = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        self._valid_shard(first, 3)
        path = first.shard_path(3)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        second = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        assert 3 not in second.done_shards
        assert not path.exists()

    def test_published_but_unjournaled_shard_adopted(self, tmp_path):
        """A crash between os.replace and the manifest flush loses nothing."""
        first = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        write_arrays(
            first.shard_path(2), {"x": np.arange(4, dtype=np.int64)}, meta={"n_days": 1}
        )
        assert 2 not in read_manifest(tmp_path)["done"]
        second = RunCheckpoint.open(tmp_path, self.KEY, self._specs())
        assert 2 in second.done_shards
        assert read_manifest(tmp_path)["done"] == [2]

    def test_stale_temps_swept_on_open(self, stale_temp_harness):
        stale_temp_harness(
            lambda root: RunCheckpoint.open(root, self.KEY, self._specs()),
            dead_name="shard-00001.arrays.tmp{pid}",
            live_name="shard-00002.arrays.tmp{pid}",
        )

    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json", "utf-8")
        with pytest.raises(RunDirError, match="unreadable run manifest"):
            RunCheckpoint.open(tmp_path, self.KEY, self._specs())


class TestCrashRecovery:
    """Worker-level faults, driven through the real process pool."""

    @pytest.fixture(autouse=True)
    def _force_pool(self, monkeypatch):
        monkeypatch.setattr(generate_module, "MIN_BROADCASTS_PER_WORKER", 0)

    def test_killed_worker_recovered_byte_identical(
        self, reference_bytes, monkeypatch, tmp_path
    ):
        """os._exit(1) mid-shard: pool rebuilt, shard resubmitted, same bytes."""
        monkeypatch.setenv(FAULTS_ENV, "kill-worker@shard=1")
        registry = MetricsRegistry()
        produced = _generate_bytes(_config(), registry, run_dir=tmp_path / "run")
        assert produced == reference_bytes
        assert _counter(registry, "trace.worker_failures") >= 1
        assert _counter(registry, "trace.pool_rebuilds") >= 1
        assert _counter(registry, "trace.shard_retries") >= 1
        assert len(read_manifest(tmp_path / "run")["done"]) == 4

    def test_failing_task_retried_byte_identical(self, reference_bytes, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fail@shard=2")
        registry = MetricsRegistry()
        assert _generate_bytes(_config(), registry) == reference_bytes
        assert _counter(registry, "trace.shard_retries") >= 1
        assert _counter(registry, "trace.pool_rebuilds") == 0

    def test_hung_worker_killed_at_deadline(self, reference_bytes, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "hang@shard=1")
        monkeypatch.setattr(generate_module, "SHARD_DEADLINE_S", 0.75)
        registry = MetricsRegistry()
        assert _generate_bytes(_config(), registry) == reference_bytes
        assert _counter(registry, "trace.worker_failures") >= 1

    def test_retry_exhaustion_raises_with_shard_id(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fail@shard=1&attempt=*")
        monkeypatch.setattr(generate_module, "SHARD_RETRIES", 1)
        with pytest.raises(RuntimeError, match="shard 1 failed after 2 attempts"):
            _generate_bytes(_config())

    def test_degrades_to_in_process_when_pool_keeps_dying(
        self, reference_bytes, monkeypatch
    ):
        """Worker faults cannot reach the in-process fallback, so even a
        pool that dies on every attempt still completes — identically."""
        monkeypatch.setenv(FAULTS_ENV, "kill-worker@shard=*&attempt=*")
        monkeypatch.setattr(generate_module, "POOL_REBUILDS", 2)
        registry = MetricsRegistry()
        assert _generate_bytes(_config(), registry) == reference_bytes
        assert _counter(registry, "trace.pool_rebuilds") == 2
        assert _counter(registry, "trace.pool_degraded") == 1


class TestInProcessSafety:
    def test_worker_faults_never_fire_in_process(self, reference_bytes, monkeypatch):
        """An injected kill must take down a *worker*, never the parent
        running the serial fallback (or a degraded run)."""
        monkeypatch.setenv(FAULTS_ENV, "kill-worker@shard=*&attempt=*")
        assert _generate_bytes(_config(workers=1)) == reference_bytes


class TestResume:
    def test_interrupted_run_resumes_without_rework(
        self, reference_bytes, monkeypatch, tmp_path
    ):
        """Resume provably skips done shards: their day generation is
        poisoned for the second run, which must still succeed."""
        run_dir = tmp_path / "run"
        # First run dies once shard 3 exhausts its (zero-retry) budget;
        # whatever finished before that is checkpointed.
        monkeypatch.setattr(generate_module, "MIN_BROADCASTS_PER_WORKER", 0)
        monkeypatch.setenv(FAULTS_ENV, "fail@shard=3&attempt=*")
        monkeypatch.setattr(generate_module, "SHARD_RETRIES", 0)
        with pytest.raises(RuntimeError, match="shard 3 failed"):
            _generate_bytes(_config(), run_dir=run_dir)
        monkeypatch.undo()  # no faults, default retries, resume in-process

        manifest = read_manifest(run_dir)
        done = set(manifest["done"])
        assert done, "at least one shard should have been checkpointed"
        poisoned_days = {
            day
            for shard_id in done
            for day in range(*manifest["shard_plan"][shard_id])
        }
        real_generate = generate_module.generate_day_columns

        def poisoned(context, day):
            if day in poisoned_days:
                raise AssertionError(f"day {day} regenerated despite checkpoint")
            return real_generate(context, day)

        monkeypatch.setattr(generate_module, "generate_day_columns", poisoned)
        registry = MetricsRegistry()
        assert _generate_bytes(_config(), registry, run_dir=run_dir) == reference_bytes
        assert _counter(registry, "trace.shards_resumed") == len(done)

    def test_truncated_shard_regenerated_on_resume(
        self, reference_bytes, monkeypatch, tmp_path
    ):
        """The checksum/size probe convicts a damaged checkpoint file and
        the shard is silently regenerated — bytes unchanged."""
        run_dir = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "truncate-shard@shard=2")
        faulted = _generate_bytes(_config(workers=1), run_dir=run_dir)
        # The faulted run itself is unharmed: columns were read before
        # the injected damage hit the disk.
        assert faulted == reference_bytes
        monkeypatch.delenv(FAULTS_ENV)
        assert read_manifest(run_dir)["done"] == [0, 1, 2, 3]
        registry = MetricsRegistry()
        assert (
            _generate_bytes(_config(workers=1), registry, run_dir=run_dir)
            == reference_bytes
        )
        assert _counter(registry, "trace.shards_resumed") == 3
        # The regenerated shard file verifies again.
        manifest = read_manifest(run_dir)
        assert manifest["done"] == [0, 1, 2, 3]
        read_arrays(run_dir / "shard-00002.arrays", verify=True)

    def test_corrupt_shard_regenerated_on_resume(
        self, reference_bytes, monkeypatch, tmp_path
    ):
        run_dir = tmp_path / "run"
        monkeypatch.setenv(FAULTS_ENV, "corrupt-shard@shard=0")
        assert _generate_bytes(_config(workers=1), run_dir=run_dir) == reference_bytes
        monkeypatch.delenv(FAULTS_ENV)
        registry = MetricsRegistry()
        assert (
            _generate_bytes(_config(workers=1), registry, run_dir=run_dir)
            == reference_bytes
        )
        assert _counter(registry, "trace.shards_resumed") == 3

    def test_fully_resumed_run_regenerates_nothing(
        self, reference_bytes, monkeypatch, tmp_path
    ):
        import repro.parallel.generate as generate_module

        run_dir = tmp_path / "run"
        assert _generate_bytes(_config(workers=1), run_dir=run_dir) == reference_bytes

        def poisoned(context, day):
            raise AssertionError("nothing should regenerate on a full resume")

        monkeypatch.setattr(generate_module, "generate_day_columns", poisoned)
        registry = MetricsRegistry()
        assert (
            _generate_bytes(_config(workers=1), registry, run_dir=run_dir)
            == reference_bytes
        )
        assert _counter(registry, "trace.shards_resumed") == 4
