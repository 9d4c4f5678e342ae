"""Frame-batched ingest against the per-frame path it replaced.

The broadcaster computes every frame's uplink arrival in one
:meth:`LastMileLink.send_many` call and the ingest server schedules one
event per chunk.  These tests keep the per-frame path — one ``send`` and
one scheduled delivery event per frame, chunk assembly as frames land,
one push per frame to every subscriber — as the oracle, and require the
batched path to reproduce it bit for bit.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink, OutageSchedule
from repro.client.viewer_client import RtmpViewerClient
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.datacenters import WOWZA_DATACENTERS
from repro.simulation.engine import Simulator

# -- the link ------------------------------------------------------------------

_times = st.floats(0.0, 40.0, allow_nan=False, allow_infinity=False)


def _link(seed: int, sigma: float, windows: list[tuple[float, float]]) -> LastMileLink:
    return LastMileLink(
        rng=np.random.default_rng(seed),
        base_delay_s=0.06,
        jitter_sigma=sigma,
        outages=OutageSchedule(windows),
        serialization_s_per_kb=0.002,
    )


class TestSendMany:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_one_send_per_packet(self, data):
        # Overlapping windows are merged by OutageSchedule; send times are
        # drawn both freely and exactly on window edges.
        spans = data.draw(
            st.lists(st.tuples(_times, st.floats(0.0, 6.0)), max_size=6), label="windows"
        )
        windows = [(start, start + length) for start, length in spans]
        edges = [edge for window in windows for edge in window]
        point = st.one_of(_times, st.sampled_from(edges)) if edges else _times
        times = sorted(data.draw(st.lists(point, max_size=80), label="times"))
        # A prefix goes through send() first, so the batch starts from a
        # live FIFO state; high sigma makes later packets overtake earlier
        # ones, which the FIFO clamp must undo.
        split = data.draw(st.integers(0, len(times)), label="split")
        sigma = data.draw(st.sampled_from([0.0, 0.15, 0.3, 2.0]), label="sigma")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")

        scalar, batched = _link(seed, sigma, windows), _link(seed, sigma, windows)
        expected = [scalar.send(t) for t in times]
        got = [batched.send(t) for t in times[:split]]
        got += batched.send_many(np.array(times[split:])).tolist()

        assert got == expected
        assert batched._last_delivery == scalar._last_delivery
        assert batched._last_send == scalar._last_send
        assert batched.rng.bit_generator.state == scalar.rng.bit_generator.state

    def test_fifo_clamp_seeded_by_earlier_send(self):
        link = LastMileLink(rng=np.random.default_rng(0), base_delay_s=5.0, jitter_sigma=0.0)
        assert link.send(0.0) == 5.0
        # Alone, a send at 1.0 with 0.1 s delay would land at 1.1.
        link.base_delay_s = 0.1
        assert link.send_many(np.array([1.0, 6.0])).tolist() == [5.0, 6.1]

    def test_empty_input_changes_nothing(self):
        link = _link(3, 0.3, [(1.0, 2.0)])
        link.send(0.5)
        state = (link._last_send, link._last_delivery, link.rng.bit_generator.state)
        out = link.send_many(np.array([]))
        assert out.shape == (0,)
        assert (link._last_send, link._last_delivery, link.rng.bit_generator.state) == state

    def test_out_of_order_input_rejected(self):
        link = _link(3, 0.3, [])
        with pytest.raises(ValueError):
            link.send_many(np.array([1.0, 0.5]))
        link.send(2.0)
        with pytest.raises(ValueError):
            link.send_many(np.array([1.5, 3.0]))


# -- the ingest path -----------------------------------------------------------


class _PerFrameIngest:
    """The per-frame ingest server: records each frame as it lands, pushes
    it to every current subscriber, and closes a chunk on its last frame."""

    def __init__(self, simulator: Simulator, frames_per_chunk: int) -> None:
        self.simulator = simulator
        self.frames_per_chunk = frames_per_chunk
        self.frame_arrivals: dict[int, float] = {}
        self.frame_captures: dict[int, float] = {}
        self.chunk_ready: dict[int, float] = {}
        self.chunks: dict[int, tuple] = {}
        self.pending: list[tuple[int, float, float]] = []
        self.subscribers: list[list[tuple[int, float, float]]] = []

    def receive(self, sequence: int, capture: float, duration: float) -> None:
        now = self.simulator.now
        self.frame_arrivals[sequence] = now
        self.frame_captures[sequence] = capture
        for pushes in self.subscribers:
            pushes.append((sequence, capture, now))
        self.pending.append((sequence, capture, duration))
        if len(self.pending) >= self.frames_per_chunk:
            self.complete()

    def complete(self) -> None:
        now = self.simulator.now
        index = len(self.chunks)
        first_sequence, first_capture, _ = self.pending[0]
        duration = sum(frame[2] for frame in self.pending)
        self.chunks[index] = (first_sequence, len(self.pending), first_capture, duration, now)
        self.chunk_ready[index] = now
        self.pending = []

    def end(self) -> None:
        if self.pending:
            self.complete()


def _per_frame_start(simulator, ingest, uplink, start_time, duration_s, interval):
    """The per-frame BroadcasterClient.start: one send and one event per frame."""
    frame_count = int(duration_s / interval)
    for sequence in range(frame_count):
        capture = start_time + sequence * interval
        arrival = uplink.send(capture)
        simulator.schedule_at(
            max(arrival, simulator.now),
            partial(ingest.receive, sequence, capture, interval),
        )
    last_arrival = uplink.send(start_time + frame_count * interval)
    simulator.schedule_at(max(last_arrival, simulator.now), ingest.end)


def _uplink(kind: str, seed: int) -> LastMileLink:
    rng = np.random.default_rng(seed)
    if kind == "wifi":
        return LastMileLink.stable_wifi(rng)
    if kind == "zero-delay":
        # Every frame lands at its capture instant, the first at the ingest.
        return LastMileLink(rng=rng, base_delay_s=0.0, jitter_sigma=0.0)
    # A stall every ~10 s on average, so outages hit every broadcast.
    return LastMileLink.mobile_uplink(rng, horizon_s=90.0, outage_rate_per_s=0.1)


def _both_paths(
    kind, seed, join_after_frame, frames_per_chunk=75, duration_s=47.3, late_by=0.0
):
    """Run the oracle and the batched path on identical inputs.

    Each side has a subscriber from the start (a crawler / viewer) and one
    that joins at exactly the arrival time of frame ``join_after_frame``.
    With ``late_by > 0`` the broadcast starts that long before the clock,
    so the frames captured earlier arrive at the ingest instant.
    """
    interval, start_time = 0.04, 1.5

    # The join instant is frame `join_after_frame`'s arrival, read off an
    # identical link (the first sends of both paths draw the same jitter).
    probe = _uplink(kind, seed)
    join_time = [
        probe.send(start_time + sequence * interval)
        for sequence in range(join_after_frame + 1)
    ][-1]
    assert join_time > start_time + late_by

    sim = Simulator()
    oracle = _PerFrameIngest(sim, frames_per_chunk)
    sim.run(until=start_time + late_by)
    _per_frame_start(sim, oracle, _uplink(kind, seed), start_time, duration_s, interval)
    early, late = [], []
    oracle.subscribers.append(early)
    sim.schedule_at(join_time, lambda: oracle.subscribers.append(late))
    sim.run()

    sim_b = Simulator()
    wowza = WowzaIngest(WOWZA_DATACENTERS[0], sim_b, frames_per_chunk=frames_per_chunk)
    sim_b.run(until=start_time + late_by)
    client = BroadcasterClient(
        broadcast_id=1, token="t", simulator=sim_b, wowza=wowza,
        uplink=_uplink(kind, seed), frame_interval_s=interval,
    )
    client.start(start_time=start_time, duration_s=duration_s)
    crawler = DelayCrawler(broadcast_id=1, simulator=sim_b)
    crawler.attach_rtmp(wowza)
    joiner = DelayCrawler(broadcast_id=1, simulator=sim_b)
    sim_b.schedule_at(join_time, lambda: joiner.attach_rtmp(wowza))
    sim_b.run()
    return oracle, early, late, wowza.record_for(1), crawler, joiner


def _columns(pushes):
    if not pushes:
        return [], [], []
    sequences, captures, times = zip(*pushes)
    return list(sequences), list(captures), list(times)


class TestIngestOracle:
    @pytest.mark.parametrize("late_by", [0.0, 0.5])
    @pytest.mark.parametrize("kind", ["wifi", "mobile", "zero-delay"])
    @pytest.mark.parametrize("seed", [3, 17, 2016])
    def test_record_chunks_and_crawler_traces_match(self, kind, seed, late_by):
        oracle, early, late, record, crawler, joiner = _both_paths(
            kind, seed, 600, late_by=late_by
        )
        n = len(oracle.frame_arrivals)
        assert record.frame_arrivals.tolist() == [oracle.frame_arrivals[s] for s in range(n)]
        assert record.frame_captures.tolist() == [oracle.frame_captures[s] for s in range(n)]
        assert record.chunk_ready == oracle.chunk_ready
        assert {
            index: (
                chunk.first_sequence, chunk.frame_count, chunk.first_capture_time,
                chunk.duration_s, chunk.completed_time,
            )
            for index, chunk in record.chunks.items()
        } == oracle.chunks
        for subscriber, pushes in ((crawler, early), (joiner, late)):
            sequences, captures, times = _columns(pushes)
            assert subscriber.frame_sequences.tolist() == sequences
            assert subscriber.frame_captures.tolist() == captures
            assert subscriber.frame_arrival_trace().tolist() == times

    @pytest.mark.parametrize("seed", [3, 17, 2016])
    def test_mobile_uplinks_stall_mid_broadcast(self, seed):
        """The oracle comparison above runs through real outages."""
        windows = _uplink("mobile", seed).outages.windows
        assert any(1.5 < start < 48.8 for start, _ in windows)

    @pytest.mark.parametrize(
        ("kind", "late_by"), [("zero-delay", 0.0), ("wifi", 0.5), ("mobile", 0.5)]
    )
    def test_frames_land_at_the_ingest_instant(self, kind, late_by):
        """The cases above where some arrivals equal the ingest instant."""
        *_, record, crawler, _ = _both_paths(kind, 3, 600, late_by=late_by)
        assert record.frame_arrivals[0] == 1.5 + late_by
        assert crawler.frame_sequences[0] == 0


class TestPushSemantics:
    def test_rtmp_viewer_matches_per_frame_downlink(self):
        sim = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], sim, frames_per_chunk=25)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=sim, wowza=wowza,
            uplink=_uplink("mobile", 5),
        )
        client.start(start_time=0.0, duration_s=30.0)
        viewer = RtmpViewerClient(
            viewer_id=1, broadcast_id=1, simulator=sim,
            downlink=LastMileLink.stable_wifi(np.random.default_rng(9)),
        )
        viewer.attach(wowza)
        sim.run()
        reference = LastMileLink.stable_wifi(np.random.default_rng(9))
        record = wowza.record_for(1)
        assert viewer.frame_arrivals.tolist() == [
            reference.send(float(t)) for t in record.frame_arrivals
        ]
        assert viewer.frame_sequences.tolist() == list(range(len(record.frame_arrivals)))

    def test_mid_broadcast_subscriber_gets_frames_arriving_after_join(self):
        """A frame landing at the very instant of the join was already sent."""
        _, _, late, record, _, joiner = _both_paths("wifi", 11, 400, duration_s=30.0)
        join_time = record.frame_arrivals[400]
        expected = np.flatnonzero(record.frame_arrivals > join_time)
        assert joiner.frame_sequences.tolist() == expected.tolist()
        assert 400 not in joiner.frame_sequences
        assert _columns(late)[0] == expected.tolist()

    def test_frames_at_the_ingest_instant_reach_every_subscriber(self):
        """Subscribers from before the ingest and from its own instant get the
        frames landing at that instant: their deliveries had not fired."""
        sim = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], sim, frames_per_chunk=25)
        sim.run(until=2.0)
        before, after, later = (DelayCrawler(broadcast_id=1, simulator=sim) for _ in range(3))
        wowza.start_broadcast(1, "t")
        before.attach_rtmp(wowza)
        wowza.ingest(1, np.array([1.0, 1.5, 2.0]), np.array([2.0, 2.0, 2.5]), 0.5)
        after.attach_rtmp(wowza)
        sim.schedule_at(2.0, lambda: later.attach_rtmp(wowza))
        sim.run()
        assert before.frame_sequences.tolist() == [0, 1, 2]
        assert after.frame_sequences.tolist() == [0, 1, 2]
        # The rule goes by instant, not by event order: an event queued after
        # the ingest for the same instant receives them as well.
        assert later.frame_sequences.tolist() == [0, 1, 2]

    def test_poll_at_chunk_completion_sees_the_chunk(self):
        """Chunks are scheduled inside start(), so an event scheduled later
        for the same instant runs after the chunk is ready."""
        sim = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], sim, frames_per_chunk=25)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=sim, wowza=wowza,
            uplink=_uplink("wifi", 4),
        )
        client.start(start_time=0.0, duration_s=10.0)
        completion = float(wowza.record_for(1).frame_arrivals[24])
        seen = []
        sim.schedule_at(
            completion, lambda: seen.append(wowza.chunklist_snapshot(1).latest_index)
        )
        sim.run()
        assert seen == [0]
