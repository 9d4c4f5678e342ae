"""Time a cold trace build into a v2 (gzip) cache against an mmap cache.

Run from the root of a checkout::

    python3 perfbench/format_cost.py --scale 0.01

This is the measurement behind ``trace_build``'s choice of the mmap cache
format (see ``README.md``); it is not one of the benchmark's workloads.
Each format gets a fresh cache directory under ``.bench_out/``, removed
afterwards.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import MetricsRegistry
    from repro.parallel import generate_trace
    from repro.workload.trace import TraceConfig

    config = TraceConfig.periscope(scale=args.scale, seed=args.seed, workers=args.workers)
    for fmt in ("mmap", "v2"):
        cache_dir = ROOT / ".bench_out" / f"format-cost-{fmt}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        registry = MetricsRegistry()
        began = time.perf_counter()
        trace = generate_trace(config, cache_dir=cache_dir, registry=registry, cache_format=fmt)
        wall = time.perf_counter() - began
        gauges = registry.snapshot()["gauges"]
        phases = sum(
            gauges[name]["value"]
            for name in ("trace.context_seconds", "trace.generate_seconds", "trace.merge_seconds")
        )
        entry_mb = sum(p.stat().st_size for p in cache_dir.glob("trace-*")) / 2**20
        print(
            f"{fmt:>4}: {wall:7.2f} s total, {wall - phases:7.2f} s outside graph/context/"
            f"generate/merge (the cache write), entry {entry_mb:.1f} MB, "
            f"{trace.dataset.broadcast_count} broadcasts"
        )
        shutil.rmtree(cache_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
