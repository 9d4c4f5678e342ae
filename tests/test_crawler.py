"""Tests for the crawler components: dataset, rate limit, global list,
monitors, delay crawler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.crawler.broadcast_monitor import BroadcastMonitor, anonymize_id, monitor_all
from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
    DowntimeWindow,
    creations_per_user,
    views_per_user,
)
from repro.crawler.delay_crawler import DelayCrawler
from repro.crawler.global_list import GlobalListCrawler
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS
from repro.service import LivestreamService
from repro.simulation import TokenBucket
from repro.simulation.engine import Simulator


def _record(bid=1, broadcaster=1, start=0.0, duration=60.0, viewers=(2, 3),
            web=1, hearts=5, comments=2, commenters=2, followers=0):
    return BroadcastRecord(
        broadcast_id=bid,
        broadcaster_id=broadcaster,
        app_name="Periscope",
        start_time=start,
        duration_s=duration,
        viewer_ids=np.array(viewers, dtype=np.int64),
        web_views=web,
        heart_count=hearts,
        comment_count=comments,
        commenter_count=commenters,
        broadcaster_followers=followers,
    )


def _dataset(records, days):
    return BroadcastDataset.from_records("Periscope", days, records)


class TestDataset:
    def test_table1_row(self):
        dataset = _dataset(
            [
                _record(bid=1, broadcaster=1, viewers=(2, 3)),
                _record(bid=2, broadcaster=1, viewers=(3, 4)),
            ],
            days=2,
        )
        row = dataset.table1_row()
        assert row["broadcasts"] == 2
        assert row["broadcasters"] == 1
        assert row["total_views"] == 6  # 4 mobile + 2 web
        assert row["unique_viewers"] == 3

    def test_daily_broadcast_counts(self):
        dataset = _dataset(
            [
                _record(bid=1, start=1000.0),
                _record(bid=2, start=90_000.0),
                _record(bid=3, start=91_000.0),
            ],
            days=3,
        )
        assert list(dataset.daily_broadcast_counts()) == [1, 2, 0]

    def test_daily_active_users(self):
        dataset = _dataset(
            [
                _record(bid=1, broadcaster=1, start=0.0, viewers=(2, 3)),
                _record(bid=2, broadcaster=4, start=90_000.0, viewers=(3,)),
            ],
            days=2,
        )
        viewers, broadcasters = dataset.daily_active_users()
        assert list(viewers) == [2, 1]
        assert list(broadcasters) == [1, 1]

    def test_downtime_removes_broadcasts(self):
        # Spread over 10 days.
        dataset = _dataset([_record(bid=i, start=i * 8640.0) for i in range(100)], days=10)
        window = DowntimeWindow(start_day=4.0, end_day=6.0, loss_fraction=1.0)
        filtered = dataset.apply_downtime(window, np.random.default_rng(0))
        assert filtered.broadcast_count == 80
        assert all(
            not window.covers(record.start_day) for record in filtered
        )

    def test_partial_downtime_loss(self):
        dataset = _dataset([_record(bid=i, start=float(i)) for i in range(2000)], days=1)
        window = DowntimeWindow(0.0, 1.0, loss_fraction=0.5)
        filtered = dataset.apply_downtime(window, np.random.default_rng(0))
        assert 850 < filtered.broadcast_count < 1150

    def test_merge_rejects_mixed_apps(self):
        """Column batches of different apps never concatenate."""
        periscope = BroadcastColumns.from_records("Periscope", [_record(bid=1)])
        meerkat = BroadcastColumns.from_records("Meerkat", [_record(bid=2)])
        with pytest.raises(ValueError):
            BroadcastColumns.concat([periscope, meerkat])
        with pytest.raises(ValueError):
            BroadcastColumns.concat([periscope], app_name="Meerkat")

    def test_per_user_aggregations(self):
        dataset = _dataset(
            [
                _record(bid=1, broadcaster=1, viewers=(5, 5, 6)),
                _record(bid=2, broadcaster=1, viewers=(6,)),
            ],
            days=1,
        )
        views = views_per_user(dataset)
        assert views == {5: 1, 6: 2}  # unique per broadcast
        creates = creations_per_user(dataset)
        assert creates == {1: 2}

    def test_record_validation(self):
        with pytest.raises(ValueError):
            _record(duration=-1.0)
        with pytest.raises(ValueError):
            _record(web=-1)

    def test_downtime_validation(self):
        with pytest.raises(ValueError):
            DowntimeWindow(5.0, 4.0)
        with pytest.raises(ValueError):
            DowntimeWindow(0.0, 1.0, loss_fraction=2.0)


class TestTokenBucket:
    def test_acquire_until_empty(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=3.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)

    def test_refill_over_time(self):
        bucket = TokenBucket(rate_per_s=2.0, capacity=2.0)
        bucket.try_acquire(0.0, tokens=2.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # 2 tokens refilled, capacity capped

    def test_capacity_cap(self):
        bucket = TokenBucket(rate_per_s=10.0, capacity=5.0)
        bucket.try_acquire(0.0, 5.0)
        bucket.try_acquire(100.0, 0.1)  # long idle; refill capped at 5
        assert bucket.available < 5.0

    def test_time_going_backwards_rejected(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=1.0)
        bucket.try_acquire(5.0)
        with pytest.raises(ValueError):
            bucket.try_acquire(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, capacity=0.0)

    def test_request_over_capacity_rejected(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=3.0)
        # Waiting can never satisfy this request, so it must raise rather
        # than silently return False forever.
        with pytest.raises(ValueError):
            bucket.try_acquire(0.0, tokens=4.0)
        with pytest.raises(ValueError):
            bucket.time_until_available(0.0, tokens=4.0)

    def test_time_until_available_now(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=2.0)
        assert bucket.time_until_available(0.0) == 0.0

    def test_time_until_available_predicts_refill(self):
        bucket = TokenBucket(rate_per_s=2.0, capacity=2.0)
        assert bucket.try_acquire(0.0, tokens=2.0)
        wait = bucket.time_until_available(0.0, tokens=1.0)
        assert wait == pytest.approx(0.5)
        # The prediction is honored: acquiring at now + wait succeeds.
        assert not bucket.try_acquire(0.4)
        assert bucket.try_acquire(0.4 + bucket.time_until_available(0.4))

    def test_time_until_available_is_pure(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=1.0)
        bucket.try_acquire(0.0)
        first = bucket.time_until_available(0.5)
        assert first == bucket.time_until_available(0.5)
        with pytest.raises(ValueError):
            bucket.time_until_available(0.5, tokens=0.0)

    def test_drain_empties_bucket(self):
        bucket = TokenBucket(rate_per_s=1.0, capacity=4.0)
        bucket.drain()
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # refills normally afterwards

    def test_fault_refill_factor_slows_refill(self):
        bucket = TokenBucket(rate_per_s=2.0, capacity=2.0)
        bucket.try_acquire(0.0, tokens=2.0)
        bucket.fault_refill_factor = 0.5
        assert bucket.time_until_available(0.0) == pytest.approx(1.0)
        assert not bucket.try_acquire(0.5)
        assert bucket.try_acquire(1.0)


class TestGlobalListCrawler:
    def test_captures_all_broadcasts_at_fast_refresh(self, simulator):
        service = LivestreamService(global_list_size=5)
        service.users.register_many(100)
        # 40 broadcasts, 20 s each, staggered every 1 s; many concurrent.
        for i in range(40):
            simulator.schedule_at(
                float(i), lambda i=i: service.start_broadcast(1 + i, time=simulator.now)
            )
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0),
            n_accounts=20, account_refresh_s=5.0,
        )
        crawler.start()
        simulator.run(until=60.0)
        crawler.stop()
        assert crawler.coverage() == 1.0
        assert crawler.aggregate_refresh_s == pytest.approx(0.25)

    def test_slow_refresh_misses_short_broadcasts(self, simulator):
        service = LivestreamService(global_list_size=2)
        service.users.register_many(300)
        # 200 very short (0.5 s) broadcasts among churn; single slow account.
        for i in range(200):
            def start_and_end(i=i):
                broadcast = service.start_broadcast(1 + i, time=simulator.now)
                simulator.schedule(
                    0.5, lambda: service.end_broadcast(broadcast.broadcast_id, simulator.now)
                )
            simulator.schedule_at(i * 0.3, start_and_end)
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0),
            n_accounts=1, account_refresh_s=5.0,
        )
        crawler.start()
        simulator.run(until=80.0)
        assert crawler.coverage() < 0.9

    def test_rate_limit_throttles_queries(self, simulator):
        service = LivestreamService()
        service.users.register_many(10)
        bucket = TokenBucket(rate_per_s=0.5, capacity=1.0)
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0),
            n_accounts=10, account_refresh_s=1.0, rate_limit=bucket,
        )
        crawler.start()
        simulator.run(until=10.0)
        throttled = sum(a.queries_throttled for a in crawler.accounts)
        made = sum(a.queries_made for a in crawler.accounts)
        assert throttled > 0
        assert made <= 7  # ~0.5/s over 10 s plus the initial burst

    def test_discovery_latency_measured(self, simulator):
        service = LivestreamService()
        service.users.register_many(10)
        simulator.schedule_at(1.0, lambda: service.start_broadcast(1, time=simulator.now))
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0), n_accounts=4,
            account_refresh_s=2.0,
        )
        crawler.start()
        simulator.run(until=10.0)
        latencies = crawler.discovery_latencies()
        assert len(latencies) == 1
        assert 0.0 <= latencies[0] <= 0.5  # aggregate refresh is 0.5 s

    def test_on_discover_callback(self, simulator):
        service = LivestreamService()
        service.users.register_many(10)
        service.start_broadcast(1, time=0.0)
        found = []
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0),
            n_accounts=1, account_refresh_s=1.0,
            on_discover=lambda bid, t: found.append(bid),
        )
        crawler.start()
        simulator.run(until=3.0)
        assert found == [1]

    def test_double_start_rejected(self, simulator):
        service = LivestreamService()
        crawler = GlobalListCrawler(service, simulator, np.random.default_rng(0))
        crawler.start()
        with pytest.raises(RuntimeError):
            crawler.start()

    def test_registry_counters_derived_from_accounts(self, simulator):
        # crawler.queries / crawler.throttled in the registry are synced from
        # the per-account fields at snapshot time — they cannot drift apart.
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        service = LivestreamService()
        service.users.register_many(10)
        service.start_broadcast(1, time=0.0)
        bucket = TokenBucket(rate_per_s=0.5, capacity=1.0)
        crawler = GlobalListCrawler(
            service, simulator, np.random.default_rng(0),
            n_accounts=6, account_refresh_s=1.0, rate_limit=bucket,
            metrics=metrics,
        )
        crawler.start()
        simulator.run(until=12.0)
        counters = metrics.snapshot()["counters"]
        made = sum(a.queries_made for a in crawler.accounts)
        throttled = sum(a.queries_throttled for a in crawler.accounts)
        assert made > 0 and throttled > 0
        assert counters["crawler.queries"]["value"] == made
        assert counters["crawler.throttled"]["value"] == throttled
        # A second snapshot must not double-count (delta sync, not re-add).
        counters2 = metrics.snapshot()["counters"]
        assert counters2["crawler.queries"]["value"] == made
        assert counters2["crawler.throttled"]["value"] == throttled


class TestBroadcastMonitor:
    def _service_with_finished_broadcast(self):
        service = LivestreamService()
        service.users.register_many(20)
        broadcast = service.start_broadcast(1, time=0.0)
        service.join(broadcast.broadcast_id, 2, time=1.0)
        service.join(broadcast.broadcast_id, 3, time=2.0, web=True)
        service.comment(broadcast.broadcast_id, 2, time=3.0)
        service.heart(broadcast.broadcast_id, 2, time=4.0)
        service.end_broadcast(broadcast.broadcast_id, time=60.0)
        return service, broadcast

    def test_finalize_produces_record(self):
        service, broadcast = self._service_with_finished_broadcast()
        monitor = BroadcastMonitor(broadcast.broadcast_id, discovered_at=0.5)
        record = monitor.finalize(service)
        assert record.mobile_views == 1
        assert record.web_views == 1
        assert record.heart_count == 1
        assert record.comment_count == 1
        assert record.commenter_count == 1
        assert record.duration_s == 60.0

    def test_finalize_live_broadcast_rejected(self):
        service = LivestreamService()
        service.users.register_many(5)
        broadcast = service.start_broadcast(1, time=0.0)
        monitor = BroadcastMonitor(broadcast.broadcast_id, discovered_at=0.0)
        with pytest.raises(RuntimeError):
            monitor.finalize(service)

    def test_double_finalize_rejected(self):
        service, broadcast = self._service_with_finished_broadcast()
        monitor = BroadcastMonitor(broadcast.broadcast_id, discovered_at=0.0)
        monitor.finalize(service)
        with pytest.raises(RuntimeError):
            monitor.finalize(service)

    def test_anonymization(self):
        service, broadcast = self._service_with_finished_broadcast()
        monitor = BroadcastMonitor(broadcast.broadcast_id, discovered_at=0.0, salt="s")
        record = monitor.finalize(service)
        assert record.broadcaster_id != 1
        assert 2 not in record.viewer_ids
        assert record.broadcaster_id == anonymize_id(1, "s")

    def test_monitor_all_skips_live(self):
        service = LivestreamService()
        service.users.register_many(5)
        done = service.start_broadcast(1, time=0.0)
        service.end_broadcast(done.broadcast_id, time=10.0)
        service.start_broadcast(2, time=5.0)  # still live
        dataset = monitor_all(service, {1: 0.1, 2: 5.1}, days=1)
        assert dataset.broadcast_count == 1


class TestDelayCrawler:
    def test_collects_frame_and_chunk_traces(self, simulator):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25)
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(1))
        edge.attach_broadcast(1, wowza)
        broadcaster = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(np.random.default_rng(2)),
        )
        crawler = DelayCrawler(broadcast_id=1, simulator=simulator, stop_after=12.0)
        broadcaster.start(start_time=0.0, duration_s=10.0)
        crawler.attach_rtmp(wowza)
        crawler.attach_hls(edge)
        simulator.run(until=20.0)

        frames = crawler.frame_arrival_trace()
        assert len(frames) == 250
        assert np.all(np.diff(frames) >= 0)
        assert crawler.frame_sequences.tolist() == list(range(250))
        assert np.all(crawler.frame_arrivals - crawler.frame_captures > 0)

        availability = crawler.chunk_availability_trace()
        assert len(availability) == 10
        w2f = crawler.wowza2fastly_delays(wowza)
        assert np.all(w2f > 0)
        assert np.all(w2f < 1.0)  # co-located POP + 0.1 s crawl

    def test_chunk_observations_join(self, simulator):
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=25)
        pop = next(dc for dc in FASTLY_DATACENTERS if dc.city == wowza.datacenter.city)
        edge = FastlyEdge(pop, simulator, TransferModel(), np.random.default_rng(1))
        edge.attach_broadcast(1, wowza)
        broadcaster = BroadcasterClient(
            broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
            uplink=LastMileLink.stable_wifi(np.random.default_rng(2)),
        )
        crawler = DelayCrawler(broadcast_id=1, simulator=simulator, stop_after=8.0)
        broadcaster.start(start_time=0.0, duration_s=6.0)
        crawler.attach_hls(edge)
        simulator.run(until=15.0)
        observations = crawler.chunk_observations(wowza)
        assert [o.chunk_index for o in observations] == sorted(
            o.chunk_index for o in observations
        )
        for obs in observations:
            assert obs.available_time > obs.ready_time

    def test_hls_queries_require_attachment(self, simulator):
        crawler = DelayCrawler(broadcast_id=1, simulator=simulator)
        with pytest.raises(RuntimeError):
            crawler.chunk_availability_trace()
