"""Figure 14: server CPU usage for RTMP vs HLS by audience size."""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.cdn.server_load import ServerLoadModel
from repro.core.scalability import scalability_sweep
from repro.experiments.registry import experiment

VIEWER_COUNTS = [100, 200, 300, 400, 500]


@experiment(
    "fig14",
    "Figure 14: CPU usage of server using RTMP and HLS",
    "RTMP needs much more CPU than HLS at every audience size, and the gap "
    "grows with viewers — RTMP does per-frame work (25 ops/s/viewer) vs HLS's "
    "per-poll work (~0.4 ops/s/viewer).",
)
def run(viewer_counts: tuple[int, ...] = tuple(VIEWER_COUNTS)) -> tuple[dict, str]:
    model = ServerLoadModel()
    curves = scalability_sweep(list(viewer_counts), model)

    rows = {}
    for rtmp_point, hls_point in zip(curves["rtmp"], curves["hls"]):
        rows[str(rtmp_point.viewers)] = {
            "rtmp_cpu_%": rtmp_point.cpu_percent,
            "hls_cpu_%": hls_point.cpu_percent,
            "gap_%": rtmp_point.cpu_percent - hls_point.cpu_percent,
            "rtmp_mem_mb": rtmp_point.memory_mb,
            "hls_mem_mb": hls_point.memory_mb,
        }
    data = {
        "curves": curves,
        "max_rtmp_viewers_at_95pct": model.max_rtmp_viewers(),
        "max_hls_viewers_at_95pct": model.max_hls_viewers(),
    }
    text = "\n".join(
        [
            format_table(rows, title="Figure 14 — server load vs viewers", row_header="viewers"),
            f"Viewers sustainable at 95% CPU: RTMP {data['max_rtmp_viewers_at_95pct']}"
            f" vs HLS {data['max_hls_viewers_at_95pct']} — the wall behind "
            "Periscope's ~100-viewer RTMP threshold.",
        ]
    )
    return data, text
