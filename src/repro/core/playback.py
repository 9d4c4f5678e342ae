"""Trace-driven client playback simulation (§6, Figures 16–17).

Implements the buffering strategy the paper decompiled from the Periscope
Android client: pre-buffer ``P`` seconds of content, then play units
(frames or chunks) in sequence order.  The client has "sufficiently large
memory ... [to] avoid dropping packets", so no unit is discarded: when
the next unit has not arrived at its scheduled time, playback *stalls*
until it does, and the schedule shifts by the stall.  A bursty upload
therefore both stalls playback and permanently inflates the buffering
delay of everything after it — the mechanism behind the >5 s delay tail
of Figure 16(b).

This reproduces the §6 headline: Periscope's P=9 s HLS pre-buffer is
conservative — P=6 s stalls the same while cutting delay by ~half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PlaybackConfig:
    """Playback policy parameters."""

    prebuffer_s: float
    unit_duration_s: float  # 0.040 for RTMP frames, ~3.0 for HLS chunks

    def __post_init__(self) -> None:
        if self.prebuffer_s < 0:
            raise ValueError("prebuffer must be non-negative")
        if self.unit_duration_s <= 0:
            raise ValueError("unit duration must be positive")

    @property
    def prebuffer_units(self) -> int:
        """Units that must arrive before playback starts (>=1)."""
        return max(1, int(np.ceil(self.prebuffer_s / self.unit_duration_s)))


@dataclass(frozen=True)
class PlaybackResult:
    """Outcome of one simulated playback session."""

    start_play_time: float
    play_times: np.ndarray  # actual play time per unit
    buffering_delays: np.ndarray  # play - arrival per unit
    stall_time_s: float
    stall_ratio: float

    @property
    def mean_buffering_delay_s(self) -> float:
        return float(np.mean(self.buffering_delays))


def simulate_playback(arrival_times: np.ndarray, config: PlaybackConfig) -> PlaybackResult:
    """Run the stall-and-wait player over a unit arrival trace.

    ``arrival_times[k]`` is the arrival of unit ``k`` in sequence order.
    Unit ``k`` plays at ``max(arrival_k, play_{k-1} + d)``, which in closed
    form is ``k*d + max(start_play, running_max(arrival_j - j*d))``.
    """
    arrivals = np.asarray(arrival_times, dtype=float)
    n = len(arrivals)
    if n == 0:
        raise ValueError("empty arrival trace")
    d = config.unit_duration_s

    # Playback starts once the first prebuffer_units units have all
    # arrived; with a FIFO transport that is when unit (prebuffer_units-1)
    # lands (the max covers loss-capable transports).
    k0 = min(config.prebuffer_units, n) - 1
    start_play = float(np.max(arrivals[: k0 + 1]))

    offsets = np.arange(n) * d
    anchor = np.maximum.accumulate(arrivals - offsets)
    play_times = offsets + np.maximum(anchor, start_play)
    delays = play_times - arrivals
    # Total stall: everything that pushed the final schedule past the
    # jitter-free one.
    stall_time = float(play_times[-1] - (start_play + (n - 1) * d))
    duration = n * d
    return PlaybackResult(
        start_play_time=start_play,
        play_times=play_times,
        buffering_delays=delays,
        stall_time_s=stall_time,
        stall_ratio=stall_time / duration,
    )


def poll_pickup_times(
    availability_times: np.ndarray,
    poll_interval_s: float,
    poll_phase_s: float,
) -> np.ndarray:
    """When a periodically-polling viewer picks up each chunk.

    Chunk ``k`` available at ``a_k`` is fetched at the first poll time
    ``phase + j * interval`` at or after ``a_k``.
    """
    if poll_interval_s <= 0:
        raise ValueError("poll interval must be positive")
    availability = np.asarray(availability_times, dtype=float)
    steps = np.ceil((availability - poll_phase_s) / poll_interval_s)
    steps = np.maximum(steps, 0)
    return poll_phase_s + steps * poll_interval_s


def sweep_prebuffer(
    traces: list[np.ndarray],
    prebuffer_values: list[float],
    unit_duration_s: float,
) -> dict[float, dict[str, np.ndarray]]:
    """Figures 16/17: per-broadcast stalling ratio and mean buffering delay
    for each pre-buffer setting.

    Returns ``{P: {"stall_ratio": array, "buffering_delay": array}}`` with
    one entry per broadcast trace.
    """
    results: dict[float, dict[str, np.ndarray]] = {}
    for prebuffer in prebuffer_values:
        config = PlaybackConfig(prebuffer_s=prebuffer, unit_duration_s=unit_duration_s)
        stalls = []
        delays = []
        for trace in traces:
            if len(trace) == 0:
                continue
            outcome = simulate_playback(trace, config)
            stalls.append(outcome.stall_ratio)
            delays.append(outcome.mean_buffering_delay_s)
        results[prebuffer] = {
            "stall_ratio": np.array(stalls),
            "buffering_delay": np.array(delays),
        }
    return results
