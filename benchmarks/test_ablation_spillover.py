"""Ablation: the RTMP spillover threshold (§4.1's ~100-viewer policy).

Sweeping the threshold exposes the policy triangle: a higher threshold
gives more viewers the low-latency interactive tier, but costs CPU
linearly per broadcast; the audience-size distribution decides how many
broadcasts even need the HLS tier.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.cdn.server_load import ServerLoadModel
from repro.workload.broadcast_model import BroadcastParamsModel

THRESHOLDS = [25, 50, 100, 200, 400]


def _sweep_thresholds() -> dict[int, dict[str, float]]:
    rng = np.random.default_rng(31)
    model = BroadcastParamsModel.for_periscope()
    audiences = model.sample_audiences(rng, 30_000)
    load = ServerLoadModel()
    rows: dict[int, dict[str, float]] = {}
    for threshold in THRESHOLDS:
        served_rtmp = np.minimum(audiences, threshold)
        rows[threshold] = {
            "cpu_per_broadcast_%": load.rtmp_cpu(threshold),
            "broadcasts_fully_rtmp": float(np.mean(audiences <= threshold)),
            "views_on_low_latency": float(served_rtmp.sum() / np.maximum(audiences.sum(), 1)),
        }
    return rows


def test_spillover_threshold_tradeoff(run_once):
    rows = run_once(_sweep_thresholds)
    print("\n" + format_table(
        {str(k): v for k, v in rows.items()},
        title="Ablation — RTMP spillover threshold",
        row_header="threshold",
    ))
    cpu = [rows[t]["cpu_per_broadcast_%"] for t in THRESHOLDS]
    coverage = [rows[t]["broadcasts_fully_rtmp"] for t in THRESHOLDS]
    assert all(b > a for a, b in zip(cpu, cpu[1:]))
    assert all(b >= a for a, b in zip(coverage, coverage[1:]))
    # At the paper's threshold of 100, the vast majority of broadcasts fit
    # entirely in the RTMP tier (paper: 94.23% never reach HLS).
    assert rows[100]["broadcasts_fully_rtmp"] > 0.9
