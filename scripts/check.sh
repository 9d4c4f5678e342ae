#!/usr/bin/env bash
# Repo health check: byte-compile everything, run the determinism linter,
# run the tier-1 suite (tier2 chaos sweeps excluded — run them with
# `pytest -m tier2`), then smoke the observability overhead budget.
# Usage:
#   scripts/check.sh [extra pytest args...]   # tier-1 gate
#   scripts/check.sh lint                     # determinism linter only —
#                                             # per-file rules + whole-program
#                                             # passes (import graph, layering,
#                                             # RNG dataflow, export drift);
#                                             # extra args pass through, e.g.
#                                             # `lint --json`, `lint --changed`
#                                             # (rule catalog: LINTING.md)
#   scripts/check.sh bench                    # smoke the trace-scale
#                                             # benchmark and validate the
#                                             # emitted BENCH_trace.json
#   scripts/check.sh chaos-pipeline           # fault-injected trace run:
#                                             # kill a worker + truncate a
#                                             # shard, require byte-identical
#                                             # recovery and resume
#   scripts/check.sh serve                    # closed-loop serving smoke:
#                                             # toy serve-bench must shed
#                                             # nothing and error nothing at
#                                             # baseline, shed under a flash
#                                             # crowd, and be seed-stable
#   scripts/check.sh benchmarks               # every ablation/figure bench
#                                             # once (headline-shape asserts,
#                                             # timing off; trace-scale and
#                                             # obs-overhead run elsewhere),
#                                             # then the tier2 tests
#   scripts/check.sh perfbench                # the benchmark's own tests:
#                                             # every workload runs once,
#                                             # so a renamed entry point
#                                             # it wraps fails here
#   scripts/check.sh validate                 # the 20-claim scorecard at
#                                             # seeds 1, 2, 3, 7, 2016 (default
#                                             # scale) and 7, 2016 (scale
#                                             # 0.002); every run must hold
#                                             # 20/20; prints each claim's
#                                             # pass count and spread
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "lint" ]]; then
    shift
    PYTHONPATH=src python -m repro lint src benchmarks examples "$@"
    exit 0
fi

if [[ "${1:-}" == "bench" ]]; then
    out="$(mktemp /tmp/bench_trace.XXXXXX.json)"
    trap 'rm -f "$out"' EXIT
    BENCH_TRACE_SMOKE=1 BENCH_TRACE_OUT="$out" PYTHONPATH=src \
        python -m pytest -x -q benchmarks/test_trace_scale.py
    PYTHONPATH=src python - "$out" BENCH_trace.json <<'EOF'
import json, os, sys
from benchmarks.test_trace_scale import validate_bench_payload

def check(path, payload):
    validate_bench_payload(payload)
    # Parallel generation must be >= serial at EVERY scale on a
    # multi-core runner: at toy scales the serial fallback keeps the
    # "parallel" mode in-process (parity by construction), above it the
    # pool must genuinely win.  A 10% + 0.1s band absorbs timer noise on
    # the sub-second rows.  On a single core "parallel" measures pure
    # scheduling overhead, so the gate logs a skip.
    for row in payload["results"]:
        if payload["cpu_count"] < 2:
            print(f"{path}: speed gate skipped at scale {row['scale']:g} (single core)")
            continue
        budget = row["serial_seconds"] * 1.10 + 0.1
        if row["parallel_seconds"] > budget:
            raise SystemExit(
                f"{path}: parallel slower than serial at scale {row['scale']:g}: "
                f"{row['parallel_seconds']}s > {row['serial_seconds']}s "
                f"(workers used: {row['parallel_workers_used']}) "
                f"on {payload['cpu_count']} cores"
            )
    # The streamed merge's reason to exist: its child-process peak RSS
    # must stay within the largest shard's footprint (x1.5 working
    # headroom) plus a fixed slack for the interpreter + numpy baseline.
    # Rows measured where resource.getrusage is unavailable log a skip.
    for row in payload["results"]:
        rss = row["peak_rss_mb"]
        if rss is None:
            print(f"{path}: RSS gate skipped at scale {row['scale']:g} "
                  "(resource unavailable)")
            continue
        budget = row["largest_shard_mb"] * 1.5 + 256.0
        if rss > budget:
            raise SystemExit(
                f"{path}: streamed merge peak RSS {rss} MB exceeds "
                f"{budget:.1f} MB (largest shard {row['largest_shard_mb']} MB "
                f"x1.5 + 256 MB slack) at scale {row['scale']:g}"
            )
    row = payload["results"][0]
    print(f"{path} ok: scale {row['scale']:g}, "
          f"serial {row['serial_broadcasts_per_sec']}/s, "
          f"parallel {row['parallel_broadcasts_per_sec']}/s "
          f"({payload['cpu_count']} core(s)); streamed merge "
          f"{row['merge_seconds']}s, peak RSS {row['peak_rss_mb']} MB")

check("smoke run", json.load(open(sys.argv[1])))
# Also hold the committed baseline to the same schema + speed gate.
if os.path.exists(sys.argv[2]):
    check(sys.argv[2], json.load(open(sys.argv[2])))
EOF
    exit 0
fi

if [[ "${1:-}" == "chaos-pipeline" ]]; then
    PYTHONPATH=src python scripts/chaos_pipeline.py
    exit 0
fi

if [[ "${1:-}" == "benchmarks" ]]; then
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable \
        --ignore=benchmarks/test_trace_scale.py --ignore=benchmarks/test_obs_overhead.py
    PYTHONPATH=src python -m pytest -q -m tier2
    exit 0
fi

if [[ "${1:-}" == "perfbench" ]]; then
    python -m pytest -q perfbench
    exit 0
fi

if [[ "${1:-}" == "validate" ]]; then
    PYTHONPATH=src python - <<'EOF'
from repro.cli import _kwargs_for, build_parser
from repro.validation import CLAIMS, validate

runs = [["--seed", str(seed)] for seed in (1, 2, 3, 7, 2016)]
runs += [["--seed", str(seed), "--scale", "0.002"] for seed in (7, 2016)]
measured = {claim.claim_id: [] for claim in CLAIMS}
passes = {claim.claim_id: 0 for claim in CLAIMS}
failures = []
for flags in runs:
    # The flags go through the CLI's own parser and argument mapping, so
    # each run is exactly `python -m repro --validate <flags>`.
    args = build_parser().parse_args(["--validate", *flags])
    outcomes = validate(kwargs_for=lambda experiment_id: _kwargs_for(experiment_id, args))
    held = sum(outcome.passed for outcome in outcomes)
    print(f"--validate {' '.join(flags)}: {held}/{len(outcomes)} claims hold")
    for outcome in outcomes:
        claim_id = outcome.claim.claim_id
        measured[claim_id].append(outcome.measured)
        passes[claim_id] += outcome.passed
        if not outcome.passed:
            failures.append(f"{claim_id} at {' '.join(flags)}: measured {outcome.measured:.3g}")
print()
width = max(len(claim_id) for claim_id in passes)
for claim_id, values in measured.items():
    print(
        f"{claim_id:<{width}}  {passes[claim_id]}/{len(runs)} pass, "
        f"measured {min(values):.3g} .. {max(values):.3g}"
    )
if failures:
    raise SystemExit("claims failed:\n  " + "\n  ".join(failures))
EOF
    exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
    PYTHONPATH=src python - <<'EOF'
from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig, run_serve_bench

toy = LoadGenConfig(n_clients=8, duration_s=20.0)
baseline = run_serve_bench(seed=2016, config=toy)
assert baseline.requests > 0, "baseline drove no requests"
assert baseline.shed == 0, f"baseline shed {baseline.shed} requests"
assert baseline.unavailable == 0, f"baseline saw {baseline.unavailable} 503s"
assert baseline.errors == 0, f"baseline saw {baseline.errors} unshed errors"
assert run_serve_bench(seed=2016, config=toy).to_dict() == baseline.to_dict(), \
    "serve-bench not seed-stable"

flash = LoadGenConfig(
    n_clients=8, duration_s=25.0,
    flash_crowd=FlashCrowdConfig(
        start_s=8.0, duration_s=10.0, extra_clients=100, think_time_s=0.2
    ),
)
crowd = run_serve_bench(seed=2016, config=flash)
assert crowd.shed > 0, "flash crowd did not engage admission control"
assert crowd.errors == 0, f"flash crowd saw {crowd.errors} unshed errors"
print(
    f"serve ok: baseline {baseline.requests} requests clean "
    f"(p99 {baseline.latency_p99_s * 1e3:.0f} ms), "
    f"flash crowd shed {crowd.shed}/{crowd.requests}"
)
EOF
    exit 0
fi

python -m compileall -q src
PYTHONPATH=src python -m repro lint src benchmarks examples
PYTHONPATH=src python -m pytest -x -q -m "not tier2" "$@"
OBS_OVERHEAD_SMOKE=1 PYTHONPATH=src python -m pytest -x -q \
    benchmarks/test_obs_overhead.py::test_null_registry_overhead_within_budget
