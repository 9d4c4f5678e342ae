"""Tests for playback and polling simulations (incl. property-based)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.playback import (
    PlaybackConfig,
    poll_pickup_times,
    simulate_playback,
    sweep_prebuffer,
)
from repro.core.polling import (
    broadcast_polling_stats,
    polling_delays,
    simulate_polling,
)

arrival_traces = st.lists(
    st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=120
).map(lambda xs: np.array(sorted(xs)))


class TestPlaybackConfig:
    def test_prebuffer_units(self):
        assert PlaybackConfig(9.0, 3.0).prebuffer_units == 3
        assert PlaybackConfig(1.0, 0.04).prebuffer_units == 25
        assert PlaybackConfig(0.0, 3.0).prebuffer_units == 1  # need one unit to play

    def test_validation(self):
        with pytest.raises(ValueError):
            PlaybackConfig(-1.0, 3.0)
        with pytest.raises(ValueError):
            PlaybackConfig(1.0, 0.0)


class TestRebufferStrategy:
    def test_steady_arrivals_play_without_stall(self):
        arrivals = np.arange(100) * 1.0
        result = simulate_playback(arrivals, PlaybackConfig(2.0, 1.0))
        assert result.stall_ratio == 0.0

    def test_prebuffer_sets_baseline_delay(self):
        arrivals = np.arange(100) * 1.0
        result = simulate_playback(arrivals, PlaybackConfig(5.0, 1.0))
        # start at arrival of unit 4 (t=4); unit k plays at 4+k -> delay 4.
        assert result.mean_buffering_delay_s == pytest.approx(4.0)

    def test_gap_causes_stall_and_shifts_schedule(self):
        arrivals = np.array([0.0, 1.0, 2.0, 10.0, 11.0])
        result = simulate_playback(arrivals, PlaybackConfig(0.0, 1.0))
        # Unit 3 arrives 7 s late -> stall of 7 s; later delays inherit it.
        assert result.stall_time_s == pytest.approx(7.0)
        assert result.play_times[3] == pytest.approx(10.0)
        assert result.play_times[4] == pytest.approx(11.0)

    def test_larger_prebuffer_absorbs_gap(self):
        arrivals = np.concatenate([np.arange(50) * 1.0, [52.0, 53.0, 54.0]])
        small = simulate_playback(arrivals, PlaybackConfig(0.0, 1.0))
        large = simulate_playback(arrivals, PlaybackConfig(4.0, 1.0))
        assert large.stall_time_s < small.stall_time_s

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_playback(np.array([]), PlaybackConfig(0.0, 1.0))

    @given(trace=arrival_traces, prebuffer=st.floats(0.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, trace, prebuffer):
        result = simulate_playback(trace, PlaybackConfig(prebuffer, 1.0))
        # Units never play before they arrive.
        assert np.all(result.play_times >= trace - 1e-9)
        # Playback order is strictly sequential with unit spacing.
        assert np.all(np.diff(result.play_times) >= 1.0 - 1e-9)
        # Delays are non-negative; stall ratio bounded.
        assert np.all(result.buffering_delays >= -1e-9)
        assert result.stall_time_s >= -1e-9

    @given(trace=arrival_traces)
    @settings(max_examples=50, deadline=None)
    def test_more_prebuffer_never_more_stall(self, trace):
        small = simulate_playback(trace, PlaybackConfig(0.0, 1.0))
        large = simulate_playback(trace, PlaybackConfig(5.0, 1.0))
        assert large.stall_time_s <= small.stall_time_s + 1e-9


class TestPollPickup:
    def test_pickup_at_next_poll(self):
        availability = np.array([0.5, 3.2, 6.0])
        pickups = poll_pickup_times(availability, poll_interval_s=2.0, poll_phase_s=0.0)
        assert list(pickups) == [2.0, 4.0, 6.0]

    def test_phase_shift(self):
        availability = np.array([0.5])
        assert poll_pickup_times(availability, 2.0, 0.6)[0] == pytest.approx(0.6)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            poll_pickup_times(np.array([1.0]), 0.0, 0.0)

    @given(
        trace=arrival_traces,
        interval=st.floats(0.5, 5.0),
        phase=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_pickup_bounds(self, trace, interval, phase):
        pickups = poll_pickup_times(trace, interval, phase)
        delays = pickups - trace
        assert np.all(delays >= -1e-9)
        # Chunks available after polling begins wait at most one interval;
        # chunks available earlier wait for the very first poll.
        after_start = trace >= phase
        assert np.all(delays[after_start] <= interval + 1e-9)
        assert np.all(pickups[~after_start] == pytest.approx(phase))


class TestPollingSimulation:
    def _chunk_trace(self, n=200, inter=3.0, jitter=0.05, seed=0):
        rng = np.random.default_rng(seed)
        gaps = inter + rng.normal(0.0, jitter, size=n)
        return np.cumsum(np.abs(gaps))

    def test_mean_delay_half_interval_nonresonant(self):
        trace = self._chunk_trace()
        rng = np.random.default_rng(1)
        stats2 = [broadcast_polling_stats(trace, 2.0, rng) for _ in range(30)]
        mean2 = np.mean([s.mean_delay_s for s in stats2])
        assert mean2 == pytest.approx(1.0, abs=0.2)

    def test_resonant_interval_spreads_means(self):
        rng = np.random.default_rng(1)
        means3 = []
        means2 = []
        for seed in range(40):
            trace = self._chunk_trace(seed=seed)
            means3.append(broadcast_polling_stats(trace, 3.0, rng).mean_delay_s)
            means2.append(broadcast_polling_stats(trace, 2.0, rng).mean_delay_s)
        assert np.std(means3) > 2 * np.std(means2)

    def test_delays_within_interval(self):
        trace = self._chunk_trace()
        delays = polling_delays(trace, 2.5, trace[0] - 1.0)
        assert np.all(delays >= 0)
        assert np.all(delays <= 2.5 + 1e-9)

    def test_simulate_polling_groups_by_interval(self):
        traces = [self._chunk_trace(n=50, seed=s) for s in range(5)]
        rng = np.random.default_rng(2)
        results = simulate_polling(traces, [2.0, 4.0], rng)
        assert set(results) == {2.0, 4.0}
        assert len(results[2.0]) == 5

    def test_short_traces_skipped(self):
        rng = np.random.default_rng(2)
        results = simulate_polling([np.array([1.0])], [2.0], rng)
        assert results[2.0] == []

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            broadcast_polling_stats(np.array([]), 2.0, np.random.default_rng(0))


class TestSweepPrebuffer:
    def test_sweep_structure(self):
        traces = [np.arange(50) * 1.0, np.arange(30) * 1.0]
        sweep = sweep_prebuffer(traces, [0.0, 5.0], unit_duration_s=1.0)
        assert set(sweep) == {0.0, 5.0}
        assert len(sweep[0.0]["stall_ratio"]) == 2

    def test_delay_monotone_in_prebuffer(self):
        rng = np.random.default_rng(3)
        traces = [np.cumsum(np.abs(rng.normal(1.0, 0.2, size=100))) for _ in range(10)]
        sweep = sweep_prebuffer(traces, [0.0, 2.0, 5.0], unit_duration_s=1.0)
        means = [sweep[p]["buffering_delay"].mean() for p in (0.0, 2.0, 5.0)]
        assert means[0] < means[1] < means[2]
