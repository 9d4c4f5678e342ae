"""Tests for frames/chunks, HLS chunklists, the message channel, RTMPS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.wowza import WowzaIngest
from repro.geo.datacenters import WOWZA_DATACENTERS
from repro.protocols.frames import Chunk, VideoFrame
from repro.protocols.hls import Chunklist, HlsPollSchedule
from repro.protocols.messages import MessageChannel, MessageKind, StreamMessage
from repro.protocols.rtmps import RtmpsCostModel
from repro.simulation.engine import Simulator


def _chunks(count: int, frames_per_chunk: int, arrivals=None, interval: float = 0.04):
    """Chunks a Wowza server assembles from ``count`` frames captured every
    ``interval`` (arriving on capture unless ``arrivals`` says otherwise)."""
    simulator = Simulator()
    wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=frames_per_chunk)
    wowza.start_broadcast(1, "tok")
    captures = np.arange(count) * interval
    arrivals = captures if arrivals is None else np.asarray(arrivals)
    wowza.ingest(1, captures, arrivals, interval)
    simulator.run(until=float(arrivals[-1]))  # every frame has arrived
    record = wowza.end_broadcast(1)
    return [record.chunks[index] for index in sorted(record.chunks)]


class TestFrames:
    def test_frame_validation(self):
        with pytest.raises(ValueError):
            VideoFrame(sequence=-1, capture_time=0.0)
        with pytest.raises(ValueError):
            VideoFrame(sequence=0, capture_time=0.0, duration_s=0.0)

    def test_with_payload_is_a_copy(self):
        frame = VideoFrame(sequence=1, capture_time=0.0, payload=b"a")
        other = frame.with_payload(b"b")
        assert frame.payload == b"a"
        assert other.payload == b"b"
        assert other.sequence == frame.sequence

    def test_with_signature(self):
        frame = VideoFrame(sequence=1, capture_time=0.0)
        signed = frame.with_signature(b"sig")
        assert signed.signature == b"sig"
        assert frame.signature is None


class TestChunking:
    def test_75_frames_make_3s_chunk(self):
        chunks = _chunks(75, frames_per_chunk=75)
        assert len(chunks) == 1
        assert chunks[0].duration_s == pytest.approx(3.0)

    def test_partial_trailing_chunk(self):
        chunks = _chunks(100, frames_per_chunk=75)
        assert len(chunks) == 2
        assert chunks[1].frame_count == 25

    def test_arrival_times_set_completion(self):
        arrivals = np.arange(10) * 0.04 + 0.5
        chunks = _chunks(10, frames_per_chunk=10, arrivals=arrivals)
        assert chunks[0].completed_time == arrivals[-1]

    def test_chunk_first_capture_time(self):
        chunks = _chunks(150, frames_per_chunk=75)
        assert chunks[1].first_capture_time == pytest.approx(75 * 0.04)
        assert chunks[1].first_sequence == 75

    def test_chunk_requires_ordered_frames(self):
        with pytest.raises(ValueError):
            _chunks(3, frames_per_chunk=3, arrivals=[0.2, 0.1, 0.3])

    def test_empty_chunk_rejected(self):
        with pytest.raises(ValueError):
            Chunk(
                index=0, first_sequence=0, frame_count=0,
                first_capture_time=0.0, duration_s=0.0, completed_time=0.0,
            )

    def test_mismatched_arrivals_rejected(self):
        simulator = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=5)
        wowza.start_broadcast(1, "tok")
        with pytest.raises(ValueError):
            wowza.ingest(1, np.zeros(5), np.array([1.0]), 0.04)


class TestChunklist:
    def test_append_bumps_version(self):
        chunklist = Chunklist()
        chunklist.append(0, 3.0, now=1.0)
        chunklist.append(1, 3.0, now=4.0)
        assert chunklist.version == 2
        assert chunklist.latest_index == 1

    def test_out_of_order_append_rejected(self):
        chunklist = Chunklist()
        chunklist.append(5, 3.0, now=1.0)
        with pytest.raises(ValueError):
            chunklist.append(4, 3.0, now=2.0)

    def test_window_trimming(self):
        chunklist = Chunklist(max_entries=3)
        for i in range(10):
            chunklist.append(i, 3.0, now=float(i))
        assert [e.chunk_index for e in chunklist.entries] == [7, 8, 9]
        assert chunklist.version == 10

    def test_entries_after(self):
        chunklist = Chunklist()
        for i in range(5):
            chunklist.append(i, 3.0, now=float(i))
        assert [e.chunk_index for e in chunklist.entries_after(2)] == [3, 4]
        assert len(chunklist.entries_after(None)) == 5

    def test_copy_is_independent(self):
        chunklist = Chunklist()
        chunklist.append(0, 3.0, now=0.0)
        clone = chunklist.copy()
        chunklist.append(1, 3.0, now=1.0)
        assert clone.latest_index == 0
        assert clone.version == 1


class TestPollSchedule:
    def test_poll_times_deterministic(self):
        schedule = HlsPollSchedule(interval_s=2.0, start_time=1.0)
        assert list(schedule.poll_times(until=7.0)) == [1.0, 3.0, 5.0, 7.0]

    def test_first_poll_at_or_after(self):
        schedule = HlsPollSchedule(interval_s=2.0, start_time=1.0)
        assert schedule.first_poll_at_or_after(0.0) == 1.0
        assert schedule.first_poll_at_or_after(3.5) == 5.0
        assert schedule.first_poll_at_or_after(5.0) == 5.0

    def test_jitter_requires_rng(self):
        schedule = HlsPollSchedule(interval_s=2.0, jitter_s=0.2)
        with pytest.raises(ValueError):
            list(schedule.poll_times(until=10.0))

    def test_jittered_polls_stay_positive_steps(self):
        schedule = HlsPollSchedule(interval_s=1.0, jitter_s=0.5)
        times = list(schedule.poll_times(until=20.0, rng=np.random.default_rng(0)))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            HlsPollSchedule(interval_s=0.0)
        with pytest.raises(ValueError):
            HlsPollSchedule(interval_s=1.0, jitter_s=-0.1)


class TestMessageChannel:
    def test_publish_delivers_to_all_subscribers(self):
        channel = MessageChannel(broadcast_id=1)
        inboxes: dict[int, list[StreamMessage]] = {2: [], 3: []}
        channel.subscribe(2, lambda m, t: inboxes[2].append(m))
        channel.subscribe(3, lambda m, t: inboxes[3].append(m))
        message = StreamMessage(MessageKind.HEART, sender_id=9, sent_time=5.0, broadcast_id=1)
        deliveries = channel.publish(message, np.random.default_rng(0))
        assert len(inboxes[2]) == len(inboxes[3]) == 1
        assert set(deliveries) == {2, 3}

    def test_delivery_after_send_time(self):
        channel = MessageChannel(broadcast_id=1)
        channel.subscribe(2, lambda m, t: None)
        message = StreamMessage(MessageKind.COMMENT, 9, sent_time=5.0, broadcast_id=1)
        deliveries = channel.publish(message, np.random.default_rng(0))
        assert all(t > 5.0 for t in deliveries.values())

    def test_message_latency_much_lower_than_hls_video(self):
        """The interactivity asymmetry: messages arrive in ~0.1-0.5 s while
        HLS video lags ~12 s — delayed hearts reference stale content."""
        channel = MessageChannel(broadcast_id=1)
        rng = np.random.default_rng(0)
        latencies = [channel.delivery_latency(rng) for _ in range(500)]
        assert float(np.median(latencies)) < 0.5

    def test_unsubscribe_stops_delivery(self):
        channel = MessageChannel(broadcast_id=1)
        received = []
        channel.subscribe(2, lambda m, t: received.append(m))
        channel.unsubscribe(2)
        channel.publish(
            StreamMessage(MessageKind.HEART, 9, 0.0, 1), np.random.default_rng(0)
        )
        assert received == []

    def test_duplicate_subscribe_rejected(self):
        channel = MessageChannel(broadcast_id=1)
        channel.subscribe(2, lambda m, t: None)
        with pytest.raises(ValueError):
            channel.subscribe(2, lambda m, t: None)

    def test_scheduler_integration(self, simulator):
        channel = MessageChannel(broadcast_id=1)
        received_at = []
        channel.subscribe(2, lambda m, t: received_at.append(simulator.now))
        message = StreamMessage(MessageKind.COMMENT, 9, sent_time=0.0, broadcast_id=1)
        channel.publish(message, np.random.default_rng(0), scheduler=simulator.schedule)
        assert received_at == []  # not yet delivered
        simulator.run()
        assert len(received_at) == 1
        assert received_at[0] > 0.0


class TestRtmpsCost:
    def test_rtmps_costs_more(self):
        model = RtmpsCostModel()
        assert model.rtmps_cost(60.0) > model.rtmp_cost(60.0)

    def test_overhead_shrinks_with_duration(self):
        """The handshake amortizes: long streams approach the per-byte ratio."""
        model = RtmpsCostModel()
        assert model.relative_overhead(10.0) > model.relative_overhead(600.0)
        assert model.relative_overhead(100_000.0) == pytest.approx(
            1 + model.encryption_overhead_per_mb / model.plaintext_cost_per_mb, rel=0.01
        )

    def test_zero_duration_overhead_undefined(self):
        with pytest.raises(ValueError):
            RtmpsCostModel().relative_overhead(0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            RtmpsCostModel().stream_megabytes(-1.0)
