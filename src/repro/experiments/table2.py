"""Table 2: structure of the Periscope follow graph vs Facebook/Twitter."""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.social_stats import table2_rows
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "table2",
    "Table 2: basic statistics of the social graphs",
    "Periscope: avg degree 38.6, clustering 0.130, avg path 3.74, assortativity "
    "-0.057 — Twitter-like (negative assortativity), not Facebook-like.",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    trace = periscope_trace(scale, seed)
    if trace.graph is None:
        raise RuntimeError("Periscope trace was generated without a graph")
    rng = np.random.default_rng(seed)
    rows = table2_rows(trace.graph, rng)
    text = format_table(rows, title="Table 2 — social graph statistics", row_header="network")
    return {"rows": rows, "scale": scale}, text
