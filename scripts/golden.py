#!/usr/bin/env python3
"""Record or check ``GOLDEN.json``, the whole-system behaviour fingerprint.

``GOLDEN.json`` pins, together with the numpy version it was recorded on:

* the fingerprint (``repro.experiments.registry.fingerprint``) of every
  registered experiment's ``data`` and ``text``, each run with default
  arguments as ``python -m repro --all`` runs it;
* the SHA-256 of the mmap cache entry of a small reference Periscope
  trace (scale 0.0005, seed 2016).

Usage::

    PYTHONPATH=src python scripts/golden.py --check   # exit 1 on any drift
    PYTHONPATH=src python scripts/golden.py --write   # re-record

A change that moves a digest says why in CHANGES.md.  Never re-record the
file to turn a failing check green.  Float bits may legitimately differ
across numpy releases (and CPU SIMD paths), so on a numpy version other
than the recorded one only the ``text`` digests are compared, the trace
entry is skipped, and a warning says the fallback was used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.experiments.registry import (
    ExperimentResult,
    fingerprint,
    list_experiments,
    run_experiment,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "GOLDEN.json"

#: The reference trace whose mmap cache entry is pinned byte for byte.
REFERENCE_TRACE = {"app": "periscope", "scale": 0.0005, "seed": 2016}


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def experiment_digests(results: Mapping[str, ExperimentResult]) -> dict[str, dict[str, str]]:
    """``{experiment_id: {"data": ..., "text": ...}}`` for the given results."""
    return {
        experiment_id: {
            "data": fingerprint(result.data),
            "text": fingerprint(result.text),
        }
        for experiment_id, result in results.items()
    }


def run_all() -> dict[str, ExperimentResult]:
    """Every registered experiment with default arguments, in paper order."""
    return {experiment_id: run_experiment(experiment_id) for experiment_id in list_experiments()}


def trace_entry_sha256(cache_dir: Path) -> str:
    """Generate the reference trace into ``cache_dir`` and hash its entry."""
    from repro.crawler.storage import DatasetCache
    from repro.parallel import generate_trace
    from repro.workload.trace import TraceConfig

    config = TraceConfig.periscope(
        scale=REFERENCE_TRACE["scale"], seed=REFERENCE_TRACE["seed"]
    )
    generate_trace(config, cache_dir=cache_dir, cache_format="mmap")
    entry = DatasetCache(cache_dir).path_for(config.cache_key())
    return hashlib.sha256(entry.read_bytes()).hexdigest()


def _fallback(golden: dict) -> bool:
    """True (and warn) when numpy differs from the recorded version."""
    if golden["numpy"] == np.__version__:
        return False
    warnings.warn(
        f"GOLDEN.json was recorded on numpy {golden['numpy']}, this is "
        f"numpy {np.__version__}: comparing rendered text only",
        stacklevel=3,
    )
    return True


def check_experiments(golden: dict, results: Mapping[str, ExperimentResult]) -> list[str]:
    """One message per experiment whose digests differ from ``golden``."""
    fields = ("text",) if _fallback(golden) else ("data", "text")
    recorded = golden["experiments"]
    measured = experiment_digests(results)
    problems = []
    if sorted(recorded) != sorted(measured):
        problems.append(
            f"experiment set differs: recorded {sorted(recorded)}, ran {sorted(measured)}"
        )
    for experiment_id in sorted(set(recorded) & set(measured)):
        for field in fields:
            if recorded[experiment_id][field] != measured[experiment_id][field]:
                problems.append(f"{experiment_id}: {field} digest changed")
    return problems


def check_trace_entry(golden: dict, cache_dir: Path) -> list[str]:
    """A message if the reference trace's cache entry bytes changed."""
    if _fallback(golden):
        return []
    recorded = golden["trace_entry"]["sha256"]
    measured = trace_entry_sha256(cache_dir)
    if measured != recorded:
        return [f"reference trace entry changed: {measured} != {recorded}"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record GOLDEN.json")
    mode.add_argument("--check", action="store_true", help="compare against GOLDEN.json")
    args = parser.parse_args(argv)

    results = run_all()
    with tempfile.TemporaryDirectory() as cache_dir:
        if args.write:
            golden = {
                "numpy": np.__version__,
                "experiments": experiment_digests(results),
                "trace_entry": {
                    **REFERENCE_TRACE,
                    "sha256": trace_entry_sha256(Path(cache_dir)),
                },
            }
            GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {GOLDEN_PATH.name}: {len(results)} experiments, numpy {np.__version__}")
            return 0
        golden = load_golden()
        problems = check_experiments(golden, results)
        problems += check_trace_entry(golden, Path(cache_dir))
    for problem in problems:
        print(problem)
    print(
        f"{GOLDEN_PATH.name}: {len(results)} experiments, "
        + ("ok" if not problems else f"{len(problems)} mismatch(es)")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
