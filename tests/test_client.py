"""Tests for client-side components: links, broadcaster, viewers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink, OutageSchedule
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.simulation.engine import Simulator


class TestOutageSchedule:
    def test_release_time_outside_windows(self):
        schedule = OutageSchedule([(10.0, 12.0)])
        assert schedule.release_time(5.0) == 5.0
        assert schedule.release_time(13.0) == 13.0

    def test_release_time_inside_window(self):
        schedule = OutageSchedule([(10.0, 12.0)])
        assert schedule.release_time(10.5) == 12.0
        assert schedule.release_time(10.0) == 12.0

    def test_overlapping_windows_merge(self):
        schedule = OutageSchedule([(1.0, 3.0), (2.0, 5.0)])
        assert schedule.windows == [(1.0, 5.0)]
        assert schedule.release_time(2.5) == 5.0

    def test_sample_respects_horizon(self):
        rng = np.random.default_rng(0)
        schedule = OutageSchedule.sample(rng, horizon_s=100.0, rate_per_s=0.1, mean_duration_s=1.0)
        assert all(start < 100.0 for start, _ in schedule.windows)

    def test_zero_rate_is_empty(self):
        rng = np.random.default_rng(0)
        assert OutageSchedule.sample(rng, 100.0, 0.0, 1.0).windows == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            OutageSchedule([(5.0, 4.0)])

    def test_contained_window_does_not_mask_outage(self):
        """Regression: with [(0, 100), (10, 20)] the window with the latest
        start <= t=50 is (10, 20), which has ended — but the link is still
        down until 100.  Merging at construction must make release_time
        answer from the union of windows."""
        schedule = OutageSchedule([(0.0, 100.0), (10.0, 20.0)])
        assert schedule.windows == [(0.0, 100.0)]
        assert schedule.release_time(50.0) == 100.0

    def test_chained_overlaps_release_past_the_union(self):
        schedule = OutageSchedule([(0.0, 5.0), (4.0, 9.0), (8.0, 12.0), (30.0, 31.0)])
        assert schedule.windows == [(0.0, 12.0), (30.0, 31.0)]
        assert schedule.release_time(1.0) == 12.0
        assert schedule.release_time(8.5) == 12.0
        assert schedule.release_time(20.0) == 20.0
        assert schedule.release_time(30.5) == 31.0

    def test_release_never_lands_inside_any_raw_window(self):
        """Property: for heavily overlapping sampled windows, the released
        time is outside every *pre-merge* window."""
        rng = np.random.default_rng(5)
        starts = rng.uniform(0.0, 50.0, size=30)
        durations = rng.exponential(3.0, size=30)
        raw = [(float(s), float(s + d)) for s, d in zip(starts, durations)]
        schedule = OutageSchedule(list(raw))
        for probe in np.linspace(0.0, 60.0, 241):
            released = schedule.release_time(float(probe))
            assert released >= probe
            for start, end in raw:
                assert not (start <= released < end)

    def test_construction_does_not_mutate_caller_list(self):
        windows = [(5.0, 6.0), (1.0, 2.0)]
        OutageSchedule(windows)
        assert windows == [(5.0, 6.0), (1.0, 2.0)]

    def test_release_time_uses_precomputed_starts(self):
        schedule = OutageSchedule([(1.0, 2.0), (4.0, 6.0)])
        assert schedule._starts == [1.0, 4.0]
        assert schedule.release_time(4.5) == 6.0

    def test_is_down(self):
        schedule = OutageSchedule([(1.0, 2.0), (4.0, 6.0)])
        assert not schedule.is_down(0.5)
        assert schedule.is_down(1.0)
        assert schedule.is_down(5.9)
        assert not schedule.is_down(2.0)  # end is exclusive
        assert not schedule.is_down(7.0)

    def test_many_outage_schedule_matches_naive_scan(self):
        # Regression for the O(n)-per-call lookup: the bisect path must
        # agree with a naive linear scan over a dense outage schedule.
        rng = np.random.default_rng(42)
        schedule = OutageSchedule.sample(
            rng, horizon_s=100_000.0, rate_per_s=0.02, mean_duration_s=5.0
        )
        assert len(schedule.windows) > 1000  # genuinely "many" windows

        def naive_release_time(time: float) -> float:
            for start, end in schedule.windows:
                if start <= time < end:
                    return end
            return time

        probes = rng.random(500) * 100_000.0
        boundaries = [w[0] for w in schedule.windows[:50]] + [
            w[1] for w in schedule.windows[:50]
        ]
        for time in list(probes) + boundaries:
            assert schedule.release_time(float(time)) == naive_release_time(float(time))


class TestLastMileLink:
    def test_delivery_after_send(self, rng):
        link = LastMileLink(rng=rng, base_delay_s=0.05, jitter_sigma=0.2)
        assert link.send(1.0) > 1.0

    def test_fifo_ordering(self, rng):
        link = LastMileLink(rng=rng, base_delay_s=0.05, jitter_sigma=1.0)
        deliveries = [link.send(i * 0.01) for i in range(200)]
        assert deliveries == sorted(deliveries)

    def test_out_of_order_send_rejected(self, rng):
        link = LastMileLink(rng=rng, jitter_sigma=0.0)
        first = link.send(5.0)
        with pytest.raises(ValueError):
            link.send(4.0)
        # The failed send must not corrupt FIFO state.
        assert link.send(5.0) >= first

    def test_outage_queues_packets(self, rng):
        link = LastMileLink(
            rng=rng,
            base_delay_s=0.01,
            jitter_sigma=0.0,
            outages=OutageSchedule([(1.0, 3.0)]),
        )
        before = link.send(0.5)
        during = link.send(1.5)
        assert before == pytest.approx(0.51)
        assert during >= 3.0  # held until the outage ends

    def test_burst_flush_preserves_order(self, rng):
        link = LastMileLink(
            rng=rng, base_delay_s=0.01, jitter_sigma=0.0,
            outages=OutageSchedule([(1.0, 2.0)]),
        )
        deliveries = [link.send(1.0 + 0.1 * i) for i in range(5)]
        assert deliveries == sorted(deliveries)
        assert all(d >= 2.0 for d in deliveries)

    def test_fifo_across_outage_straddling_back_to_back_sends(self, rng):
        # One packet sent just before an outage window, one inside it: the
        # second departs only when the outage lifts, and delivery order
        # matches send order even though the first packet's delay would
        # otherwise let the second overtake it.
        link = LastMileLink(
            rng=rng,
            base_delay_s=5.0,
            jitter_sigma=0.0,
            outages=OutageSchedule([(10.0, 12.0)]),
        )
        before = link.send(9.9)   # departs 9.9, delivers 14.9
        inside = link.send(10.0)  # held until 12.0, delivers 17.0
        assert before == pytest.approx(14.9)
        assert inside == pytest.approx(17.0)
        assert before <= inside
        # And with a long outage the earlier packet's delivery is the
        # floor: FIFO forbids reordering after the flush.
        flush_link = LastMileLink(
            rng=rng,
            base_delay_s=0.001,
            jitter_sigma=0.0,
            outages=OutageSchedule([(10.0, 20.0)]),
        )
        first = flush_link.send(9.999999)
        second = flush_link.send(10.5)
        third = flush_link.send(11.0)
        assert first <= second <= third
        assert second >= 20.0

    def test_stable_wifi_factory(self, rng):
        link = LastMileLink.stable_wifi(rng)
        assert link.outages.windows == []

    def test_mobile_uplink_has_outage_schedule(self):
        rng = np.random.default_rng(12)
        link = LastMileLink.mobile_uplink(rng, horizon_s=10_000.0)
        assert len(link.outages.windows) > 10  # ~50 expected at 1/200 rate


class TestBroadcasterClient:
    def test_all_frames_arrive_in_order(self, simulator, rng):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=75)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(rng),
        )
        count = client.start(start_time=0.0, duration_s=4.0)
        simulator.run()
        record = wowza.record_for(1)
        assert count == 100
        assert len(record.frame_arrivals) == 100
        arrivals = [record.frame_arrivals[i] for i in range(100)]
        assert arrivals == sorted(arrivals)

    def test_upload_delay_positive(self, simulator, rng):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(rng),
        )
        client.start(start_time=0.0, duration_s=2.0)
        simulator.run()
        record = wowza.record_for(1)
        assert all(record.upload_delay_s(i) > 0 for i in range(10))

    def test_broadcast_ends_after_last_frame(self, simulator, rng):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=10)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(rng),
        )
        client.start(start_time=0.0, duration_s=1.0)
        simulator.run()
        assert not wowza.is_live(1)
        # 25 frames -> chunks of 10/10/5 after the end-flush.
        assert len(wowza.record_for(1).chunk_ready) == 3

    def test_invalid_duration_rejected(self, simulator, rng):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator)
        client = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(rng),
        )
        with pytest.raises(ValueError):
            client.start(start_time=0.0, duration_s=0.0)


class TestViewerClients:
    @pytest.fixture
    def pipeline(self, simulator):
        """Broadcaster streaming into Wowza + co-located POP."""
        streams_rng = np.random.default_rng(5)
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25)
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(6))
        edge.attach_broadcast(1, wowza)
        broadcaster = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(np.random.default_rng(7)),
        )
        broadcaster.start(start_time=0.0, duration_s=10.0)
        return simulator, wowza, edge, streams_rng

    def test_rtmp_viewer_receives_every_frame(self, pipeline):
        simulator, wowza, edge, rng = pipeline
        viewer = RtmpViewerClient(
            viewer_id=1, broadcast_id=1, simulator=simulator,
            downlink=LastMileLink.stable_wifi(rng),
        )
        viewer.attach(wowza)
        simulator.run()
        assert len(viewer.frame_arrivals) == 250
        delays = viewer.end_to_end_delays()
        assert np.all(delays > 0)
        assert float(np.mean(delays)) < 0.5  # low-latency tier

    def test_hls_viewer_downloads_all_chunks(self, pipeline):
        simulator, wowza, edge, rng = pipeline
        viewer = HlsViewerClient(
            viewer_id=2, broadcast_id=1, simulator=simulator, edge=edge,
            downlink=LastMileLink.stable_wifi(rng), poll_interval_s=1.0,
            stop_after=25.0,
        )
        viewer.start_polling(first_poll_at=0.3)
        simulator.run(until=30.0)
        # 250 frames / 25 per chunk = 10 chunks.
        assert len(viewer.chunk_arrivals) == 10
        delays = viewer.end_to_end_delays()
        assert np.all(delays > 0)

    def test_hls_delay_exceeds_rtmp_delay(self, pipeline):
        simulator, wowza, edge, rng = pipeline
        rtmp = RtmpViewerClient(
            viewer_id=1, broadcast_id=1, simulator=simulator,
            downlink=LastMileLink.stable_wifi(np.random.default_rng(8)),
        )
        rtmp.attach(wowza)
        hls = HlsViewerClient(
            viewer_id=2, broadcast_id=1, simulator=simulator, edge=edge,
            downlink=LastMileLink.stable_wifi(np.random.default_rng(9)),
            poll_interval_s=2.4, stop_after=25.0,
        )
        hls.start_polling(first_poll_at=0.5)
        simulator.run(until=30.0)
        assert float(np.mean(hls.end_to_end_delays())) > float(
            np.mean(rtmp.end_to_end_delays())
        )

    def test_chunk_response_precedes_arrival(self, pipeline):
        simulator, wowza, edge, rng = pipeline
        viewer = HlsViewerClient(
            viewer_id=2, broadcast_id=1, simulator=simulator, edge=edge,
            downlink=LastMileLink.stable_wifi(rng), poll_interval_s=1.5,
            stop_after=25.0,
        )
        viewer.start_polling(first_poll_at=0.1)
        simulator.run(until=30.0)
        for index, arrival in viewer.chunk_arrivals.items():
            assert viewer.chunk_response_times[index] <= arrival

    def test_stopped_viewer_stops_polling(self, pipeline):
        simulator, wowza, edge, rng = pipeline
        viewer = HlsViewerClient(
            viewer_id=2, broadcast_id=1, simulator=simulator, edge=edge,
            downlink=LastMileLink.stable_wifi(rng), poll_interval_s=1.0,
        )
        viewer.start_polling(first_poll_at=0.1)
        simulator.schedule(2.0, viewer.stop)
        simulator.run(until=30.0)
        assert all(t <= 2.0 for t in viewer.poll_times)

    def test_wrong_broadcast_frame_rejected(self, simulator, rng):
        viewer = RtmpViewerClient(
            viewer_id=1, broadcast_id=1, simulator=simulator,
            downlink=LastMileLink.stable_wifi(rng),
        )
        with pytest.raises(ValueError):
            viewer.push_frames(2, np.array([0]), np.array([0.0]), np.array([0.0]))
