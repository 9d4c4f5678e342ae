"""Tests for the runtime determinism sanitizer (repro.lint.sanitizer).

The two acceptance properties: an injected ``random.random()`` /
``time.time()`` inside a simulator step raises with the offending call
site named, and a clean run's output is byte-identical with the sanitizer
on vs. off (same seed).
"""

from __future__ import annotations

import logging
import random
import time

import pytest

from repro.crawler.storage import dataset_to_bytes
from repro.lint.sanitizer import (
    DeterminismSanitizer,
    DeterminismViolation,
    is_active,
    verify_hashseed_pinned,
)
from repro.parallel import generate_trace
from repro.simulation.engine import Simulator
from repro.workload.trace import TraceConfig


class TestGuards:
    def test_random_raises_with_call_site_named(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation) as excinfo:
                random.random()
        message = str(excinfo.value)
        assert "random.random()" in message
        assert "test_lint_sanitizer.py" in message  # the offending call site

    def test_wall_clock_raises_with_call_site_named(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation) as excinfo:
                time.time()
        message = str(excinfo.value)
        assert "time.time()" in message
        assert "test_lint_sanitizer.py" in message

    def test_monotonic_and_seed_also_guarded(self):
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                time.monotonic()
            with pytest.raises(DeterminismViolation):
                random.seed(0)

    def test_perf_counter_stays_usable(self):
        """perf_counter is the sanctioned timing-only reader; never patched."""
        with DeterminismSanitizer():
            assert time.perf_counter() > 0

    def test_stdlib_internals_pass_through(self):
        """logging reads the wall clock from stdlib code — exempt."""
        with DeterminismSanitizer():
            record = logging.makeLogRecord({})
            assert record.created > 0

    def test_patches_removed_on_exit(self):
        with DeterminismSanitizer():
            pass
        assert random.random() is not None
        assert time.time() > 0
        assert not is_active()

    def test_patches_restored_even_after_violation(self):
        with pytest.raises(DeterminismViolation):
            with DeterminismSanitizer():
                time.time()
        assert time.time() > 0

    def test_nested_contexts_share_one_patch_set(self):
        with DeterminismSanitizer():
            with DeterminismSanitizer():
                assert is_active()
                with pytest.raises(DeterminismViolation):
                    random.random()
            # Still armed: only the outermost exit restores.
            assert is_active()
            with pytest.raises(DeterminismViolation):
                random.random()
        assert not is_active()

    def test_conftest_fixture_arms_the_guards(self, determinism_sanitizer):
        assert is_active()
        with pytest.raises(DeterminismViolation):
            random.random()


class TestInsideSimulation:
    def test_injected_random_in_simulator_step_raises(self):
        """A simulator event that touches the global RNG fails the run."""
        simulator = Simulator()
        values = []
        simulator.schedule(1.0, lambda: values.append(random.random()))
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation) as excinfo:
                simulator.run()
        assert "random.random()" in str(excinfo.value)
        assert not values

    def test_injected_wall_clock_in_simulator_step_raises(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: time.time())
        with DeterminismSanitizer():
            with pytest.raises(DeterminismViolation):
                simulator.run()

    def test_clean_simulation_unaffected(self):
        """A compliant event sequence runs identically under the sanitizer."""
        fired: list[float] = []

        def build() -> Simulator:
            simulator = Simulator()
            simulator.schedule(2.0, lambda: fired.append(simulator.now))
            simulator.schedule(1.0, lambda: fired.append(simulator.now))
            return simulator

        build().run()
        baseline = list(fired)
        fired.clear()
        with DeterminismSanitizer():
            build().run()
        assert fired == baseline == [1.0, 2.0]


class TestByteIdentity:
    def test_dataset_bytes_identical_with_sanitizer_on_and_off(self):
        """Acceptance: the sanitizer alters no byte of a clean run's output."""
        config = TraceConfig.periscope(scale=0.00003, seed=6)
        plain = generate_trace(config).dataset
        with DeterminismSanitizer():
            sanitized_run = generate_trace(config).dataset
        assert dataset_to_bytes(plain) == dataset_to_bytes(sanitized_run)


class TestHashSeedPinning:
    def test_single_process_needs_no_pin(self, monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        verify_hashseed_pinned(workers=1)  # no raise

    def test_multi_process_without_pin_raises(self, monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with pytest.raises(DeterminismViolation, match="PYTHONHASHSEED"):
            verify_hashseed_pinned(workers=4)

    def test_random_hashseed_rejected(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "random")
        with pytest.raises(DeterminismViolation):
            verify_hashseed_pinned(workers=2)

    def test_pinned_hashseed_accepted(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        verify_hashseed_pinned(workers=8)  # no raise

    def test_sanitizer_checks_workers_on_entry(self, monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with pytest.raises(DeterminismViolation):
            with DeterminismSanitizer(workers=2):
                pass
        # The failed entry must not leave guards armed.
        assert time.time() > 0
