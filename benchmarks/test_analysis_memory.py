"""Peak memory of the trace analyses, one experiment per fresh process.

Generates scale-0.01 Periscope and Meerkat traces into a temporary mmap
cache, then runs Table 1 and Figs 1-7 one after another, each in its own
fresh subprocess reading that cache (``REPRO_TRACE_CACHE``), and prints
each run's wall time and peak RSS.

Fig 3 reads one row-sized column, so its peak is the interpreter, numpy,
``repro`` and the cache read.  Every experiment must peak within that
plus 1.5x the Periscope cache entry: a pass that holds an int64 per view
pays for the viewer IDs more than once and fails.  ``measure`` produces
the same table at any scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.crawler.storage import DatasetCache
from repro.experiments.context import MEERKAT_SCALE_BOOST
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig

SCALE = 0.01
SEED = 2016
EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")
#: The peak each experiment may add over Fig 3's, in Periscope cache entries.
ENTRY_HEADROOM = 1.5

REPO_ROOT = Path(__file__).resolve().parents[1]

#: One experiment in a fresh interpreter: its wall time and the process's
#: peak RSS, as one JSON line.  A plain string keeps the child's
#: wall-clock read out of this module's AST for the linter.
_CHILD = """\
import json, sys, time
from repro.experiments.registry import run_experiment
from repro.obs import peak_rss_mb

exp_id, scale, seed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
started = time.perf_counter()
run_experiment(exp_id, scale=scale, seed=seed)
print(json.dumps({"wall_s": time.perf_counter() - started, "peak_rss_mb": peak_rss_mb()}))
"""


def build_cache(scale: float, cache_dir: Path) -> float:
    """Generate both traces into ``cache_dir``; the Periscope entry's MiB."""
    periscope = TraceConfig.periscope(scale=scale, seed=SEED)
    generate_trace(periscope, cache_dir=cache_dir)
    meerkat = TraceConfig.meerkat(scale=min(1.0, scale * MEERKAT_SCALE_BOOST), seed=SEED)
    generate_trace(meerkat, cache_dir=cache_dir)
    return DatasetCache(cache_dir).path_for(periscope.cache_key()).stat().st_size / 2**20


def measure(scale: float, cache_dir: Path) -> dict[str, dict[str, float]]:
    """``{experiment: {"wall_s", "peak_rss_mb"}}``, each run in a fresh
    subprocess reading the traces ``build_cache`` wrote to ``cache_dir``."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["REPRO_TRACE_CACHE"] = str(cache_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    runs = {}
    for exp_id in EXPERIMENTS:
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, exp_id, repr(scale), str(SEED)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        runs[exp_id] = json.loads(child.stdout.splitlines()[-1])
    return runs


def render(scale: float, entry_mb: float, runs: dict[str, dict[str, float]]) -> str:
    lines = [
        f"scale {scale:g}, seed {SEED}, Periscope entry {entry_mb:.1f} MiB",
        "| experiment | wall | peak RSS |",
        "|---|---|---|",
    ]
    lines += [
        f"| {exp_id} | {run['wall_s']:.2f} s | {run['peak_rss_mb']:.0f} MB |"
        for exp_id, run in runs.items()
    ]
    return "\n".join(lines)


def test_trace_analyses_stay_within_fig3_peak_plus_entry(tmp_path):
    cache_dir = tmp_path / "cache"
    entry_mb = build_cache(SCALE, cache_dir)
    entries = sorted(cache_dir.iterdir())
    runs = measure(SCALE, cache_dir)
    # Every child read the cache; none regenerated a trace.
    assert sorted(cache_dir.iterdir()) == entries
    if runs["fig3"]["peak_rss_mb"] is None:
        pytest.skip("no peak-RSS source (procfs or resource) on this platform")
    print("\n" + render(SCALE, entry_mb, runs))
    bound = runs["fig3"]["peak_rss_mb"] + ENTRY_HEADROOM * entry_mb
    over = {
        exp_id: round(run["peak_rss_mb"], 1)
        for exp_id, run in runs.items()
        if run["peak_rss_mb"] > bound
    }
    assert not over, f"peak RSS above {bound:.1f} MB (Fig 3's + {ENTRY_HEADROOM} entries): {over}"
