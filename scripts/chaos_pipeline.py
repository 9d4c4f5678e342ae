#!/usr/bin/env python3
"""Chaos smoke for the trace-generation pipeline (scripts/check.sh chaos-pipeline).

End-to-end proof that fault recovery never changes the output:

1. a clean checkpointed run establishes the reference bytes;
2. a faulted run — a worker killed mid-shard (``kill-worker@shard=1``)
   and a shard file truncated after persist (``truncate-shard@shard=3``)
   — must produce byte-identical output through retry and re-verify;
3. a resume of the faulted run dir must regenerate only the damaged
   shard, skip the healthy ones, and again match byte-for-byte.

Runs at a toy scale with the serial fallback disabled so a real process
pool (and therefore real worker crashes) is exercised even on a
single-core runner.  Exit 0 on success, non-zero with a message on any
divergence.

Run:  PYTHONPATH=src python scripts/chaos_pipeline.py
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

SCALE = 0.0003
SEED = 17
WORKERS = 2
SHARDS = 4
# The worker kill breaks the whole pool, so shard 3 may not persist
# until a later attempt — fire the truncation on every attempt so the
# resume leg always finds a damaged shard file to demote.
FAULTS = "kill-worker@shard=1,truncate-shard@shard=3&attempt=*"


def _generate(run_dir=None, resume=False, faults=""):
    """One trace generation pass; returns (bytes, metrics snapshot)."""
    from repro.crawler.storage import dataset_to_bytes
    from repro.obs.metrics import MetricsRegistry
    from repro.parallel import generate_trace
    from repro.workload.trace import TraceConfig

    os.environ["REPRO_TRACE_FAULTS"] = faults
    registry = MetricsRegistry()
    config = TraceConfig.periscope(
        scale=SCALE, seed=SEED, workers=WORKERS, shards=SHARDS
    )
    trace = generate_trace(
        config, registry=registry, run_dir=run_dir, resume=resume
    )
    counters = registry.snapshot()["counters"]
    return dataset_to_bytes(trace.dataset), {
        name: metric["value"] for name, metric in counters.items()
    }


def main() -> int:
    from repro.parallel import generate

    # The pool must actually run: without this the toy scale would take
    # the in-process fallback and no worker could be killed.
    generate.MIN_BROADCASTS_PER_WORKER = 0

    print(f"chaos-pipeline: scale {SCALE:g}, seed {SEED}, "
          f"{WORKERS} workers / {SHARDS} shards")

    reference, _ = _generate()
    print(f"  clean run: {len(reference)} bytes")

    with tempfile.TemporaryDirectory(prefix="chaos-trace-run-") as tmp:
        run_dir = Path(tmp) / "run"

        faulted, counters = _generate(run_dir=run_dir, faults=FAULTS)
        retries = counters.get("trace.shard_retries", 0)
        failures = counters.get("trace.worker_failures", 0)
        if faulted != reference:
            print("FAIL: faulted run diverged from clean run", file=sys.stderr)
            return 1
        if not failures:
            print("FAIL: kill-worker fault never fired "
                  "(worker_failures == 0)", file=sys.stderr)
            return 1
        print(f"  faulted run ({FAULTS}): byte-identical "
              f"({failures:g} worker failures, {retries:g} retries)")

        resumed, counters = _generate(run_dir=run_dir, resume=True)
        resumed_shards = counters.get("trace.shards_resumed", 0)
        if resumed != reference:
            print("FAIL: resumed run diverged from clean run", file=sys.stderr)
            return 1
        # The truncated shard must have been demoted on open; every
        # other shard must have been adopted instead of regenerated.
        if resumed_shards != SHARDS - 1:
            print(f"FAIL: expected {SHARDS - 1} shards resumed "
                  f"(one demoted as truncated), got {resumed_shards:g}",
                  file=sys.stderr)
            return 1
        print(f"  resumed run: byte-identical, "
              f"{resumed_shards:g}/{SHARDS} shards skipped")

    print("chaos-pipeline ok: recovery and resume are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
