#!/usr/bin/env python3
"""Scenario: tuning the client pre-buffer (§6's optimization).

Crawls a batch of simulated broadcasts with the fine-grained delay
crawler, then replays each one through the decompiled client buffering
strategy at several pre-buffer settings — exactly the paper's
trace-driven methodology — and prints the stalling/delay trade-off with a
recommendation.

The paper's conclusion, reproduced here: Periscope ships P=9 s for HLS,
but P=6 s keeps playback equally smooth while cutting buffering delay
roughly in half.

Run:  python examples/buffer_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive_buffer import AdaptiveBufferPolicy, JitterProbe, evaluate_policies
from repro.core.pipeline import (
    DelayMeasurementCampaign,
    hls_viewer_traces,
    rtmp_viewer_traces,
)
from repro.core.playback import sweep_prebuffer
from repro.platform.apps import PERISCOPE_PROFILE

N_BROADCASTS = 40


def report(title: str, sweep: dict, unit: str) -> None:
    print(title)
    print(f"  {'prebuffer':>10}  {'median stall':>13}  {'p90 stall':>10}  {'median delay':>13}")
    for prebuffer, metrics in sorted(sweep.items()):
        stalls = metrics["stall_ratio"]
        delays = metrics["buffering_delay"]
        print(
            f"  {prebuffer:>9.1f}s"
            f"  {np.median(stalls):>12.1%}"
            f"  {np.percentile(stalls, 90):>9.1%}"
            f"  {np.median(delays):>12.2f}s"
        )
    print()


def main() -> None:
    print(f"crawling {N_BROADCASTS} broadcasts for frame/chunk traces...\n")
    traces = DelayMeasurementCampaign(n_broadcasts=N_BROADCASTS, seed=2).run()

    rtmp_sweep = sweep_prebuffer(
        rtmp_viewer_traces(traces), [0.0, 0.5, 1.0],
        unit_duration_s=PERISCOPE_PROFILE.frame_interval_s,
    )
    report("RTMP viewers (40 ms frames):", rtmp_sweep, "frames")

    rng = np.random.default_rng(2)
    hls_sweep = sweep_prebuffer(
        hls_viewer_traces(traces, rng),
        [0.0, 3.0, 6.0, 9.0],
        unit_duration_s=PERISCOPE_PROFILE.chunk_duration_s,
    )
    report("HLS viewers (3 s chunks, 2.8 s polling):", hls_sweep, "chunks")

    stall_6 = float(np.median(hls_sweep[6.0]["stall_ratio"]))
    stall_9 = float(np.median(hls_sweep[9.0]["stall_ratio"]))
    delay_6 = float(np.median(hls_sweep[6.0]["buffering_delay"]))
    delay_9 = float(np.median(hls_sweep[9.0]["buffering_delay"]))
    adaptive = evaluate_policies(
        hls_viewer_traces(traces, np.random.default_rng(3)),
        PERISCOPE_PROFILE.chunk_duration_s,
        adaptive=AdaptiveBufferPolicy(probe=JitterProbe(probe_s=30.0)),
    )["adaptive"]
    print("adaptive policy (probe 30s, fall back to 9s on instability):")
    print(
        f"  median stall {adaptive.median_stall_ratio:.1%}, median delay "
        f"{adaptive.median_delay_s:.2f}s, buffer mix {adaptive.prebuffer_distribution}\n"
    )

    print("recommendation:")
    print(
        f"  HLS P=6s stalls {stall_6:.1%} vs {stall_9:.1%} at Periscope's "
        f"configured P=9s,\n  while median buffering delay drops "
        f"{delay_9:.1f}s -> {delay_6:.1f}s "
        f"({1 - delay_6 / delay_9:.0%} less — the paper's ~50% finding)."
    )


if __name__ == "__main__":
    main()
