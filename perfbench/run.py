"""The reproduction's benchmark of record.

Run from the root of a checkout::

    python3 perfbench/run.py --workload trace_build --seed 2016 --seconds 24 --trace 0

It imports ``repro`` from the checkout's ``src/`` and repeats one workload
(see ``workloads.py``) until ``--seconds`` have passed, then prints one JSON
object as the last line of standard output::

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  Times are host-normalized
(see ``meter.py``): medians over the repetitions for the timed section,
minima over three set-ups for ``setup_s``.  ``peak_rss_mb`` is the median
over the repetitions of this process's peak RSS during one repetition.

``--trace 1`` alternates untraced and traced repetitions; the traced ones
wrap each layer's entry points in spans and report the per-layer metrics
(medians over the traced repetitions, in plain wall seconds) and the
tracing overhead, and write the span tree as Chrome trace-event JSON under
``.bench_out/traces/``.  A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up is repeated this many times per run and reported as the minimum.
SETUP_REPEATS = 3

#: Times importing every repro module the workloads reach, in a fresh interpreter.
IMPORT_PROBE = """
import sys, time
began = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from repro.experiments.registry import list_experiments
list_experiments()
print(time.perf_counter() - began)
"""


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", type=float, default=1.0,
        help="multiplier on the trace scales and serving duration (paper_all ignores it)",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".bench_out",
        help="directory for scratch caches and Chrome traces",
    )
    return parser.parse_args(argv)


def import_repro() -> None:
    """Import every ``repro`` module the workloads reach, from this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro source tree at {src}")
    sys.path.insert(0, str(src))
    import repro
    from repro.experiments.registry import list_experiments

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    list_experiments()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> None:
    """Restart the VmHWM high-water mark from the current RSS (Linux 4.0+).

    Where ``/proc/self/clear_refs`` is missing, the mark keeps running and
    the reported peak covers the whole process instead of one repetition.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def import_seconds() -> float:
    """Normalized seconds of the fastest of several imports, each in a new interpreter."""
    from meter import REFERENCE_S, reference

    normalized = []
    for _ in range(SETUP_REPEATS):
        before = reference()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        after = reference()
        elapsed = float(probe.stdout.split()[-1])
        normalized.append(elapsed * REFERENCE_S / ((before + after) / 2))
    return min(normalized)


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    import_repro()
    from meter import Meter
    from repro.obs import peak_rss_mb
    from spans import Tracer, write_chrome_trace
    from workloads import (
        END_TO_END_UNITS, WORKLOADS, instrument, layer_metrics, per_layer_units, span,
    )

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    scratch = args.out / f"work-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, scratch, args.size)
    try:
        prepare_s = []
        inputs = None
        for index in range(SETUP_REPEATS):
            meter = Meter(normalize=True)
            with meter.part("prepare"):
                fresh = workload.prepare(index)
            prepare_s.append(meter.normalized)
            if inputs is not None:
                workload.discard(inputs)
            inputs = fresh

        reps: list[dict[str, Any]] = []
        tracers: list[Tracer] = []
        checks: list[bool] = []
        reference = None
        measure_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            tracer = Tracer() if traced else None
            gc.collect()
            if tracer is not None:
                instrument(tracer)
            meter = Meter(normalize=not traced)
            reset_peak_rss()
            try:
                with span(tracer, "bench.rep"):
                    result = workload.run(inputs, tracer, meter)
            finally:
                if tracer is not None:
                    tracer.unpatch()
            peak_rss = peak_rss_mb() or 0.0
            output = workload.finish(inputs, result)
            del result
            checks.extend(output.checks)
            if output.fingerprint is not None:
                if reference is None:
                    reference = output.fingerprint
                else:
                    checks.append(output.fingerprint == reference)
            rep = {
                "wall": meter.elapsed,
                "normalized": meter.normalized,
                "work": output.work,
                "traced": traced,
                "peak_rss": peak_rss,
            }
            if tracer is not None:
                rep["layers"] = layer_metrics(tracer, output.layers)
                tracers.append(tracer)
            reps.append(rep)
            elapsed = time.perf_counter() - measure_start
            # Stop once another repetition would end more than half a
            # repetition past the deadline; a traced run needs one of each.
            if args.trace and len(reps) < 2:
                continue
            if elapsed + 0.5 * (elapsed / len(reps)) >= args.seconds:
                break
        setup_s = import_seconds() + min(prepare_s) if not args.trace else 0.0
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    untraced = [rep for rep in reps if not rep["traced"]]
    if args.trace:
        traced = [rep for rep in reps if rep["traced"]]
        untraced_wall = median([rep["wall"] for rep in untraced])
        traced_wall = median([rep["wall"] for rep in traced])
        units = per_layer_units()
        values = {name: median([rep["layers"][name] for rep in traced]) for name in units}
        values["bench.untraced_wall_s"] = untraced_wall
        values["bench.traced_wall_s"] = traced_wall
        values["bench.trace_overhead_s"] = traced_wall - untraced_wall
        trace_path = args.out / "traces" / f"{args.workload}-seed{args.seed}.json"
        write_chrome_trace(
            trace_path,
            tracers,
            {"workload": args.workload, "seed": args.seed, "size": args.size},
        )
        print(f"span tree: {trace_path}", file=sys.stderr)
    else:
        units = END_TO_END_UNITS
        wall = median([rep["normalized"] for rep in untraced])
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "peak_rss_mb": median([rep["peak_rss"] for rep in untraced]),
            "throughput_per_s": untraced[0]["work"] / wall,
        }
    failed = checks.count(False)
    print(
        f"{args.workload}: seed {args.seed}, {len(reps)} repetitions "
        f"({len(untraced)} untraced, median raw wall "
        f"{median([rep['wall'] for rep in untraced]):.3f} s), "
        f"{len(checks) - failed}/{len(checks)} checks passed",
        file=sys.stderr,
    )
    for name in units:
        print(f"  {name:<28} {values[name]:14.6g} {units[name]}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    # Runs are hermetic: no REPRO_* knob from the caller's environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
