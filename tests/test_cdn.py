"""Tests for the CDN: ingest, edge, transfer, load model, assignment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.server_load import ServerLoadModel
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.geo.coordinates import GeoPoint
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.simulation.engine import Simulator


def _ingest(wowza: WowzaIngest, arrivals, broadcast_id: int = 1) -> None:
    """Hand ``wowza`` frames captured every 40 ms arriving at ``arrivals``."""
    arrivals = np.asarray(arrivals, dtype=float)
    captures = np.arange(arrivals.size) * 0.04
    wowza.ingest(broadcast_id, captures, arrivals, 0.04)


def _spaced(count: int, step: float = 0.1) -> list[float]:
    """Arrivals at ``step``, ``2 * step``, ... (one frame per ``step``)."""
    return [step * (i + 1) for i in range(count)]


class _Recorder:
    """An RtmpSubscriber that keeps every push it receives."""

    def __init__(self) -> None:
        self.pushes = []

    def push_frames(self, broadcast_id, sequences, captures, pushed_at):
        self.pushes.append((broadcast_id, sequences.tolist(), pushed_at.tolist()))


@pytest.fixture
def wowza(simulator):
    return WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=5)


class TestAssignment:
    def test_broadcaster_gets_nearest_wowza(self):
        assignment = CdnAssignment()
        tokyo_user = GeoPoint(35.6, 139.7)
        assert assignment.wowza_for_broadcaster(tokyo_user).city == "Tokyo"

    def test_rtmp_viewer_follows_broadcaster_dc(self):
        assignment = CdnAssignment()
        tokyo_wowza = assignment.wowza_for_broadcaster(GeoPoint(35.6, 139.7))
        # A viewer in London still connects to Tokyo for RTMP.
        assert assignment.wowza_for_rtmp_viewer(tokyo_wowza) is tokyo_wowza

    def test_hls_viewer_gets_nearest_pop(self):
        assignment = CdnAssignment()
        assert assignment.fastly_for_viewer(GeoPoint(51.5, -0.1)).city == "London"

    def test_catalog_validation(self):
        with pytest.raises(ValueError):
            CdnAssignment(wowza_sites=FASTLY_DATACENTERS, fastly_sites=FASTLY_DATACENTERS)
        with pytest.raises(ValueError):
            CdnAssignment(wowza_sites=(), fastly_sites=FASTLY_DATACENTERS)


class TestWowzaIngest:
    def test_records_frame_arrivals(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, [0.5])
        simulator.run()
        record = wowza.record_for(1)
        assert record.frame_arrivals[0] == 0.5
        assert record.upload_delay_s(0) == pytest.approx(0.5)

    def test_chunk_completes_after_n_frames(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, _spaced(5))
        simulator.run()
        record = wowza.record_for(1)
        assert list(record.chunk_ready) == [0]
        assert record.chunk_ready[0] == pytest.approx(0.5)
        assert record.chunks[0].first_sequence == 0

    def test_end_flushes_partial_chunk(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, [0.1])
        simulator.run(until=0.1)  # the frame has arrived
        record = wowza.end_broadcast(1)
        assert 0 in record.chunk_ready
        assert record.chunks[0].frame_count == 1

    def test_end_before_last_arrival_rejected(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, [0.1, 0.2])
        with pytest.raises(ValueError):
            wowza.end_broadcast(1)

    def test_rtmp_push_to_subscribers(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        early, late = _Recorder(), _Recorder()
        wowza.subscribe_rtmp(1, early)
        _ingest(wowza, [0.2, 0.3])
        wowza.subscribe_rtmp(1, late)
        # One push each, made at subscribe or ingest time, never again.
        simulator.run()
        assert early.pushes == [(1, [0, 1], [0.2, 0.3])]
        assert late.pushes == [(1, [0, 1], [0.2, 0.3])]

    def test_subscriber_after_last_frame_gets_nothing(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, [0.2])
        recorder = _Recorder()
        simulator.schedule(0.5, lambda: wowza.subscribe_rtmp(1, recorder))
        simulator.run()
        assert recorder.pushes == []

    def test_expiry_listener_fires_per_chunk(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        expiries = []
        wowza.add_expiry_listener(1, lambda bid, version, t: expiries.append(version))
        _ingest(wowza, _spaced(10))
        simulator.run()
        assert expiries == [1, 2]  # two chunks of 5 frames

    def test_duplicate_start_rejected(self, wowza):
        wowza.start_broadcast(1, "tok")
        with pytest.raises(ValueError):
            wowza.start_broadcast(1, "tok")

    def test_frame_after_end_rejected(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        wowza.end_broadcast(1)
        with pytest.raises(ValueError):
            _ingest(wowza, [0.1])

    def test_second_ingest_rejected(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        _ingest(wowza, [0.1])
        with pytest.raises(ValueError):
            _ingest(wowza, [0.2])

    def test_unordered_or_past_arrivals_rejected(self, simulator, wowza):
        wowza.start_broadcast(1, "tok")
        with pytest.raises(ValueError):
            _ingest(wowza, [0.2, 0.1])
        simulator.run(until=1.0)
        with pytest.raises(ValueError):
            _ingest(wowza, [0.5])

    def test_unknown_broadcast_rejected(self, wowza):
        with pytest.raises(KeyError):
            _ingest(wowza, [0.1], broadcast_id=99)


class TestFastlyEdge:
    @pytest.fixture
    def setup(self, simulator):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=5)
        # Co-located POP: deterministic-ish fast transfers.
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(1))
        wowza.start_broadcast(1, "tok")
        edge.attach_broadcast(1, wowza)
        return simulator, wowza, edge

    def _feed_frames(self, simulator, wowza, count):
        _ingest(wowza, _spaced(count))

    def test_poll_fresh_cache_responds_immediately(self, setup):
        simulator, wowza, edge = setup
        responses = []
        simulator.schedule(0.05, lambda: edge.poll(1, lambda cl, t: responses.append(t)))
        simulator.run()
        assert responses == [0.05]  # empty but fresh

    def test_stale_poll_triggers_origin_pull(self, setup):
        simulator, wowza, edge = setup
        self._feed_frames(simulator, wowza, 5)  # one chunk, ready at 0.5
        responses = []
        simulator.schedule(1.0, lambda: edge.poll(1, lambda cl, t: responses.append((cl.latest_index, t))))
        simulator.run()
        assert len(responses) == 1
        index, time = responses[0]
        assert index == 0
        assert time > 1.0  # waited for the pull
        assert edge.origin_pulls(1) == 1

    def test_concurrent_stale_polls_share_one_pull(self, setup):
        simulator, wowza, edge = setup
        self._feed_frames(simulator, wowza, 5)
        responses = []
        for offset in (1.0, 1.001, 1.002):
            simulator.schedule(
                offset, lambda: edge.poll(1, lambda cl, t: responses.append(t))
            )
        simulator.run()
        assert len(responses) == 3
        assert edge.origin_pulls(1) == 1  # deduplicated
        assert len(set(responses)) == 1  # all answered together

    def test_availability_recorded_once_per_chunk(self, setup):
        simulator, wowza, edge = setup
        self._feed_frames(simulator, wowza, 10)  # two chunks
        # Poll repeatedly like a crawler.
        def poll_loop():
            edge.poll(1, lambda cl, t: None)
            if simulator.now < 3.0:
                simulator.schedule(0.1, poll_loop)

        simulator.schedule(0.0, poll_loop)
        simulator.run()
        availability = edge.availability_map(1)
        assert set(availability) == {0, 1}
        ready = wowza.record_for(1).chunk_ready
        for index, available in availability.items():
            assert available >= ready[index]

    def test_chunk_payload_requires_cached(self, setup):
        simulator, wowza, edge = setup
        with pytest.raises(KeyError):
            edge.chunk_payload(1, 0)

    def test_duplicate_attach_rejected(self, setup):
        simulator, wowza, edge = setup
        with pytest.raises(ValueError):
            edge.attach_broadcast(1, wowza)


class TestTransferModel:
    def test_colocated_is_fast(self, rng):
        model = TransferModel()
        wowza = WOWZA_DATACENTERS[0]  # Ashburn
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == "Ashburn")
        samples = [model.transfer_delay_s(wowza, pop, rng) for _ in range(200)]
        assert float(np.median(samples)) < 0.15

    def test_remote_pays_coordination_gap(self, rng):
        model = TransferModel()
        wowza = WOWZA_DATACENTERS[0]  # Ashburn
        nearby = next(dc for dc in FASTLY_DATACENTERS if dc.city == "New York")
        colocated = next(dc for dc in FASTLY_DATACENTERS if dc.city == "Ashburn")
        near_median = float(
            np.median([model.transfer_delay_s(wowza, nearby, rng) for _ in range(300)])
        )
        co_median = float(
            np.median([model.transfer_delay_s(wowza, colocated, rng) for _ in range(300)])
        )
        assert near_median - co_median > 0.2  # the paper's >0.25 s gap (approx)

    def test_delay_grows_with_distance(self, rng):
        model = TransferModel()
        wowza = next(dc for dc in WOWZA_DATACENTERS if dc.city == "Frankfurt")
        near = next(dc for dc in FASTLY_DATACENTERS if dc.city == "Paris")
        far = next(dc for dc in FASTLY_DATACENTERS if dc.city == "Sydney")
        assert model.expected_transfer_delay_s(wowza, far) > model.expected_transfer_delay_s(
            wowza, near
        )

    def test_gateway_city_counts_as_colocated(self, rng):
        """Sao Paulo's gateway is Miami; Miami itself gets gateway service."""
        model = TransferModel()
        sao = next(dc for dc in WOWZA_DATACENTERS if dc.city == "Sao Paulo")
        gateway = model.gateway_for(sao)
        expected = model.expected_transfer_delay_s(sao, gateway)
        assert expected == pytest.approx(model.handoff_s)


class TestServerLoadModel:
    def test_rtmp_costs_more_than_hls(self):
        model = ServerLoadModel()
        for viewers in (100, 300, 500):
            assert model.rtmp_cpu(viewers) > model.hls_cpu(viewers)

    def test_gap_grows_with_viewers(self):
        model = ServerLoadModel()
        gap_small = model.rtmp_cpu(100) - model.hls_cpu(100)
        gap_large = model.rtmp_cpu(500) - model.hls_cpu(500)
        assert gap_large > gap_small

    def test_cpu_capped_at_100(self):
        model = ServerLoadModel()
        assert model.rtmp_cpu(100_000) == 100.0

    def test_memory_similar_and_stable(self):
        """Paper: 'similar and stable memory consumption' for both."""
        model = ServerLoadModel()
        rtmp = model.rtmp_memory_mb(500)
        hls = model.hls_memory_mb(500)
        assert abs(rtmp - hls) / rtmp < 0.2
        # Memory grows far slower than CPU (relative to base).
        assert model.rtmp_memory_mb(500) / model.rtmp_memory_mb(100) < 1.2

    def test_rtmp_wall_near_500_viewers(self):
        """Calibration: ~500 RTMP viewers saturate the reference laptop."""
        model = ServerLoadModel()
        assert 400 < model.max_rtmp_viewers() < 700
        assert model.max_hls_viewers() > 4 * model.max_rtmp_viewers()

    def test_negative_viewers_rejected(self):
        with pytest.raises(ValueError):
            ServerLoadModel().rtmp_cpu(-1)

    def test_load_curve_protocols(self):
        model = ServerLoadModel()
        curve = model.load_curve([10, 20], "rtmp")
        assert [p.viewers for p in curve] == [10, 20]
        with pytest.raises(ValueError):
            model.load_curve([10], "quic")


class TestEdgePlaylistWire:
    def test_edge_serves_chunklist_to_pollers(self, simulator):
        """A poller reconstructs edge state from the chunklist it is handed."""
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=5)
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(1))
        wowza.start_broadcast(1, "tok")
        edge.attach_broadcast(1, wowza)
        _ingest(wowza, _spaced(15))  # 3 chunks of 5 frames
        served = []

        def poll_loop():
            edge.poll(1, lambda chunklist, t: served.append(chunklist))
            if simulator.now < 4.0:
                simulator.schedule(0.1, poll_loop)

        simulator.schedule(0.0, poll_loop)
        simulator.run()
        chunklist = served[-1]
        assert [entry.chunk_index for entry in chunklist.entries] == [0, 1, 2]
        assert chunklist.latest_index == 2
        assert all(entry.duration_s == pytest.approx(0.2) for entry in chunklist.entries)
