"""End-to-end integration tests: the full measurement pipeline, and
failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink, OutageSchedule
from repro.crawler.broadcast_monitor import monitor_all
from repro.crawler.global_list import GlobalListCrawler
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.platform.engagement import EngagementModel
from repro.service import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams


class TestFullMeasurementPipeline:
    """Service activity -> crawler -> monitors -> dataset -> analysis,
    all inside one event-driven simulation (a micro version of §3)."""

    @pytest.fixture(scope="class")
    def crawl(self):
        streams = RandomStreams(19)
        simulator = Simulator()
        service = LivestreamService(global_list_size=10)
        service.users.register_many(400)
        engagement = EngagementModel()
        rng = streams.get("activity")

        ground_truth = {"broadcasts": 0, "hearts": 0}

        def launch_broadcast(broadcaster_id: int) -> None:
            now = simulator.now
            broadcast = service.start_broadcast(broadcaster_id, time=now)
            ground_truth["broadcasts"] += 1
            duration = float(np.clip(rng.lognormal(np.log(60.0), 0.6), 20.0, 240.0))
            audience = int(rng.integers(0, 12))
            for viewer_offset in range(audience):
                viewer_id = int(rng.integers(101, 400))
                join_offset = float(rng.uniform(0.0, duration * 0.8))
                plan = engagement.sample_session(
                    viewer_id, join_offset, duration - join_offset, rng
                )
                ground_truth["hearts"] += len(plan.heart_times)
                simulator.schedule(
                    join_offset,
                    lambda b=broadcast.broadcast_id, p=plan, s=now: engagement.apply_session(
                        service, b, p, s
                    ),
                )
            simulator.schedule(
                duration,
                lambda b=broadcast.broadcast_id: service.end_broadcast(b, simulator.now),
            )

        for index in range(30):
            start = index * 12.0
            broadcaster_id = 1 + (index % 50)
            simulator.schedule_at(start, lambda b=broadcaster_id: launch_broadcast(b))

        crawler = GlobalListCrawler(
            service, simulator, streams.get("crawler"),
            n_accounts=10, account_refresh_s=5.0,
        )
        crawler.start()
        simulator.run(until=900.0)
        dataset = monitor_all(service, crawler.discovered, days=1)
        return service, crawler, dataset, ground_truth

    def test_crawler_captures_every_broadcast(self, crawl):
        service, crawler, dataset, truth = crawl
        assert crawler.coverage() == 1.0
        assert dataset.broadcast_count == truth["broadcasts"]

    def test_dataset_matches_service_ground_truth(self, crawl):
        service, crawler, dataset, truth = crawl
        service_hearts = sum(len(b.hearts) for b in service.all_broadcasts())
        dataset_hearts = sum(r.heart_count for r in dataset)
        assert dataset_hearts == service_hearts
        assert dataset_hearts == truth["hearts"]

    def test_dataset_feeds_analysis(self, crawl):
        from repro.analysis.broadcast_stats import (
            broadcast_length_cdf,
            viewers_per_broadcast_cdf,
        )

        _, _, dataset, _ = crawl
        lengths = broadcast_length_cdf(dataset)
        assert 20.0 <= lengths.median <= 240.0
        viewers = viewers_per_broadcast_cdf(dataset)
        assert viewers.values[-1] <= 11

    def test_comment_cap_held_everywhere(self, crawl):
        service, _, dataset, _ = crawl
        for record in dataset:
            assert record.commenter_count <= service.profile.comment_cap


class TestFailureInjection:
    def _pipeline(self, simulator, uplink):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25)
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(2))
        edge.attach_broadcast(1, wowza)
        broadcaster = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza, uplink=uplink
        )
        return wowza, edge, broadcaster

    def test_mid_broadcast_uplink_outage_loses_no_frames(self, simulator):
        uplink = LastMileLink(
            rng=np.random.default_rng(1), base_delay_s=0.03, jitter_sigma=0.1,
            outages=OutageSchedule([(5.0, 11.0)]),
        )
        wowza, edge, broadcaster = self._pipeline(simulator, uplink)
        broadcaster.start(start_time=0.0, duration_s=20.0)
        simulator.run(until=60.0)
        record = wowza.record_for(1)
        # Every frame arrives (TCP retransmits through the stall)...
        assert len(record.frame_arrivals) == 500
        # ...and frames sent during the outage arrive only after it ends.
        outage_frames = [
            seq for seq in range(500) if 5.0 <= seq * 0.04 < 11.0
        ]
        assert all(record.frame_arrivals[seq] >= 11.0 for seq in outage_frames)

    def test_chunks_completing_during_inflight_pull_are_recovered(self, simulator):
        """A chunk finishing while the edge's pull is in flight must still
        become available on a later poll (the stale-again path)."""
        uplink = LastMileLink.stable_wifi(np.random.default_rng(3))
        wowza, edge, broadcaster = self._pipeline(simulator, uplink)
        broadcaster.start(start_time=0.0, duration_s=10.0)  # 10 chunks of 1 s

        def slow_poller():
            edge.poll(1, lambda cl, t: None)
            if simulator.now < 25.0:
                simulator.schedule(2.5, slow_poller)  # slower than chunk rate

        simulator.schedule(0.5, slow_poller)
        simulator.run(until=40.0)
        availability = edge.availability_map(1)
        ready = wowza.record_for(1).chunk_ready
        assert set(availability) == set(ready)  # nothing lost
        for index in availability:
            assert availability[index] >= ready[index]

    def test_crawler_downtime_yields_partial_but_consistent_dataset(self):
        """Stopping the crawler mid-measurement loses broadcasts but never
        corrupts the surviving records (the paper's Aug 7-9 outage)."""
        streams = RandomStreams(23)
        simulator = Simulator()
        service = LivestreamService(global_list_size=5)
        service.users.register_many(100)
        rng = streams.get("x")
        for index in range(40):
            start = index * 5.0

            def begin(i=index):
                broadcast = service.start_broadcast(1 + i, time=simulator.now)
                simulator.schedule(
                    15.0,
                    lambda: service.end_broadcast(broadcast.broadcast_id, simulator.now),
                )

            simulator.schedule_at(start, begin)
        crawler = GlobalListCrawler(
            service, simulator, rng, n_accounts=5, account_refresh_s=5.0
        )
        crawler.start()
        simulator.schedule_at(100.0, crawler.stop)  # downtime begins
        simulator.run(until=300.0)
        dataset = monitor_all(service, crawler.discovered, days=1)
        assert 0 < dataset.broadcast_count < 40
        for record in dataset:
            truth = service.get_broadcast(record.broadcast_id)
            assert record.duration_s == pytest.approx(truth.duration)
