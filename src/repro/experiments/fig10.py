"""Figure 10: the RTMP/HLS end-to-end delay breakdown diagram.

The original annotates the journey of one frame (RTMP) and one chunk
(HLS) with numbered timestamps ①–⑰.  This runner regenerates the diagram
quantitatively: it runs one controlled session and prints the actual
timeline of a mid-broadcast frame and chunk, with the gap each hop
contributes.
"""

from __future__ import annotations

from repro.core.delay_breakdown import ControlledExperiment
from repro.experiments.registry import experiment

#: Human labels for the numbered timestamps.
LABELS = {
    "1_capture": "① captured on the broadcaster's phone",
    "2_wowza_arrival": "② arrives at Wowza (upload)",
    "3_viewer_arrival": "③ arrives at the RTMP viewer (last mile)",
    "4_played": "④ played (client buffering)",
    "5_capture": "⑤ first frame captured",
    "6_wowza_arrival": "⑥ first frame at Wowza (upload)",
    "7_chunk_ready": "⑦ chunk assembled at Wowza (chunking)",
    "11_fastly_available": "⑪ chunk cached at Fastly (Wowza2Fastly)",
    "14_viewer_poll": "⑭ viewer's poll finds it (polling)",
    "15_viewer_arrival": "⑮ chunk at the viewer (last mile)",
    "17_played": "⑰ played (client buffering)",
}


def _render_path(name: str, stamps: dict[str, float]) -> list[str]:
    lines = [f"{name} path:"]
    ordered = sorted(stamps.items(), key=lambda item: item[1])
    origin = ordered[0][1]
    previous = origin
    for key, value in ordered:
        gap = value - previous
        lines.append(
            f"  t={value - origin:7.3f}s  (+{gap:6.3f}s)  {LABELS[key]}"
        )
        previous = value
    total = ordered[-1][1] - origin
    lines.append(f"  end-to-end: {total:.2f}s")
    return lines


@experiment(
    "fig10",
    "Figure 10: RTMP/HLS end-to-end delay breakdown diagram",
    "A frame travels capture → Wowza → RTMP viewer → play in ~1.4 s; the same "
    "content as an HLS chunk pays chunking at Wowza, a gateway hop to Fastly, "
    "the viewer's polling interval, and ~9 s of client pre-buffer.",
)
def run(seed: int = 7, duration_s: float = 90.0) -> tuple[dict, str]:
    timeline = ControlledExperiment(seed=seed, duration_s=duration_s).run_timeline()
    lines = []
    lines.extend(_render_path("RTMP (per frame)", timeline["rtmp"]))
    lines.append("")
    lines.extend(_render_path("HLS (per chunk)", timeline["hls"]))
    rtmp_total = timeline["rtmp"]["4_played"] - timeline["rtmp"]["1_capture"]
    hls_total = timeline["hls"]["17_played"] - timeline["hls"]["5_capture"]
    lines.append("")
    lines.append(
        f"The same moment reaches an RTMP viewer {rtmp_total:.1f}s and an HLS "
        f"viewer {hls_total:.1f}s after it happened."
    )
    data = {"timeline": timeline, "rtmp_total_s": rtmp_total, "hls_total_s": hls_total}
    return data, "\n".join(lines)
