"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer, write_chrome_trace  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    EXPERIMENT_IDS,
    WORKLOADS,
    digest,
    per_layer_units,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str, cwd: Path = ROOT, timeout: float = 600) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_every_name_is_well_formed():
    names = list(WORKLOADS) + list(END_TO_END_UNITS) + list(per_layer_units())
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(END_TO_END_UNITS.values()) + list(per_layer_units().values()):
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_exactly_the_workloads_and_metrics():
    bench = bench_file()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_experiment_metrics_follow_the_registry():
    from repro.experiments.registry import list_experiments

    assert tuple(list_experiments()) == EXPERIMENT_IDS


def test_tracer_self_time_and_restore():
    module = types.SimpleNamespace()

    def inner():
        time.sleep(0.01)
        return 3

    def outer():
        time.sleep(0.01)
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "layer.inner", aggregate=True, count=lambda result: result)
    tracer.wrap(module, "outer", "layer.outer")
    with tracer.span("bench.rep"):
        assert module.outer() == 6
    tracer.unpatch()
    assert module.inner is inner and module.outer is outer

    assert tracer.totals["layer.inner"][0] == 2
    assert tracer.counts["layer.inner"] == 6
    outer_s = tracer.seconds("layer.outer")
    assert tracer.self_seconds("layer.outer") == pytest.approx(
        outer_s - tracer.seconds("layer.inner")
    )
    assert sum(tracer.layer_self_seconds().values()) == pytest.approx(tracer.seconds("bench.rep"))
    # Aggregated spans are summarized on their stored parent, not stored.
    names = [record[0] for record in tracer.spans]
    assert names == ["bench.rep", "layer.outer"]
    assert tracer.spans[1][3] == 0
    assert tracer.spans[1][4]["layer.inner"][0] == 2


def test_chrome_trace_export(tmp_path):
    tracer = Tracer()
    with tracer.span("bench.rep"):
        with tracer.span("layer.child"):
            pass
    path = tmp_path / "trace.json"
    write_chrome_trace(path, [tracer], {"workload": "test"})
    events = json.loads(path.read_text())["traceEvents"]
    spans = [event for event in events if event["ph"] == "X"]
    assert [event["name"] for event in spans] == ["bench.rep", "layer.child"]
    assert spans[1]["args"]["parent"] == spans[0]["args"]["id"]
    assert spans[0]["ts"] <= spans[1]["ts"]


def test_digest_is_canonical():
    import numpy as np

    first = {"b": [1.0, np.arange(3)], "a": (True, None)}
    second = {"a": (True, None), "b": [1.0, np.arange(3)]}
    assert digest(first) == digest(second)
    assert digest(first) != digest({"a": (True, None), "b": [1.0, np.arange(4)]})


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["trace_build", "trace_analysis", "serve_flash"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_at_tiny_size(workload, trace, tmp_path):
    result = _result(run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace,
        "--size", "0.05", "--out", str(tmp_path),
    ))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = END_TO_END_UNITS if trace == "0" else per_layer_units()
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert (tmp_path / "traces" / f"{workload}-seed7.json").is_file()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("work-")] == []


def test_paper_all_holds_every_claim(tmp_path):
    # paper_all has no smaller size: its checks are the claims at default arguments.
    result = _result(run_bench(
        "--workload", "paper_all", "--seconds", "0", "--out", str(tmp_path),
    ))
    assert result["correct"] and result["attempted"] == 20


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    completed = run_bench(
        "--workload", "serve_flash", "--seconds", "1", cwd=tmp_path, timeout=180
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
