"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.platform.users import UserRegistry
from repro.service import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.social.generation import FollowGraphConfig, generate_follow_graph


@pytest.fixture(scope="session")
def golden():
    """``scripts/golden.py``, the GOLDEN.json recorder and checker."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tree_lint():
    """One lint of ``src``, ``benchmarks`` and ``examples`` — the set
    ``scripts/check.sh lint`` gates — shared by every test that needs the
    real tree's report (``.report``) or its wall time (``.seconds``)."""
    from repro.lint import lint_paths

    root = Path(__file__).resolve().parents[1]
    started = time.perf_counter()
    report = lint_paths([root / "src", root / "benchmarks", root / "examples"])
    return SimpleNamespace(report=report, seconds=time.perf_counter() - started)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=42)


@pytest.fixture
def simulator() -> Simulator:
    return Simulator()


@pytest.fixture
def small_graph(rng):
    """A 300-node follow graph (fast to generate, big enough for metrics)."""
    return generate_follow_graph(FollowGraphConfig(n_nodes=300, mean_out_degree=8.0), rng)


@pytest.fixture
def service() -> LivestreamService:
    """A Periscope-profile service with 200 registered users."""
    svc = LivestreamService()
    svc.users.register_many(200)
    return svc


@pytest.fixture
def live_broadcast(service):
    """A running broadcast by user 1, started at t=0."""
    return service.start_broadcast(broadcaster_id=1, time=0.0)


#: A pid no real process can hold (above every default pid_max) — the
#: canonical "writer died" pid for stale-temp tests.
DEAD_WRITER_PID = 2**22 + 1


@pytest.fixture
def stale_temp_harness(tmp_path):
    """Shared exercise for every ``*.tmp<pid>`` sweep in the repo.

    Plants two orphan temp files in a directory — one from a writer that
    can no longer exist (:data:`DEAD_WRITER_PID`) and one from this very
    process — runs the caller's *opener* (whatever triggers the sweep:
    ``DatasetCache(...)``, ``RunCheckpoint.open(...)``), and asserts the
    dead writer's file was removed while the live writer's survived.
    """
    import os

    def run(opener, dead_name: str, live_name: str):
        dead = tmp_path / dead_name.format(pid=DEAD_WRITER_PID)
        live = tmp_path / live_name.format(pid=os.getpid())
        dead.write_bytes(b"partial")
        live.write_bytes(b"in flight")
        opener(tmp_path)
        assert not dead.exists(), "dead writer's temp file should be swept"
        assert live.exists(), "live writer's temp file must be left alone"
        return tmp_path

    return run


@pytest.fixture
def determinism_sanitizer():
    """The armed runtime determinism sanitizer (repro.lint.sanitizer).

    While active, wall-clock and process-global RNG reads from repo or test
    code raise DeterminismViolation naming the call site.
    """
    from repro.lint.sanitizer import DeterminismSanitizer

    with DeterminismSanitizer() as sanitizer:
        yield sanitizer
