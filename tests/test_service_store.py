"""Tests for the storage tier: the broadcast store and region caches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.platform.broadcasts import Broadcast
from repro.service.errors import GlobalListPage
from repro.service.facade import LivestreamService
from repro.service.store import BroadcastStore, RegionCache, StoreError


def _broadcast(broadcast_id: int, start: float = 0.0) -> Broadcast:
    return Broadcast(
        broadcast_id=broadcast_id, broadcaster_id=1, start_time=start,
        app_name="periscope",
    )


class TestBroadcastStore:
    def test_insert_places_in_owning_shard(self):
        """The store is one partition: inserts append to its live list."""
        store = BroadcastStore()
        for broadcast_id in range(1, 9):
            store.insert(_broadcast(broadcast_id))
        assert store.live_count == 8
        assert store.live_ids == list(range(1, 9))
        assert all(store.is_live(broadcast_id) for broadcast_id in range(1, 9))
        store.check_invariants()

    def test_duplicate_insert_rejected(self):
        store = BroadcastStore()
        store.insert(_broadcast(1))
        with pytest.raises(StoreError):
            store.insert(_broadcast(1))

    def test_retire_uses_swap_remove(self):
        store = BroadcastStore()
        for broadcast_id in range(1, 6):
            store.insert(_broadcast(broadcast_id))
        store.retire(2)
        # The last id (5) swapped into position 1; order is insertion-then-swap.
        assert store.live_ids == [1, 5, 3, 4]
        assert not store.is_live(2)
        assert store.get(2) is not None  # retired, not deleted

    def test_retire_not_live_rejected(self):
        store = BroadcastStore()
        store.insert(_broadcast(1))
        store.retire(1)
        with pytest.raises(StoreError):
            store.retire(1)
        with pytest.raises(StoreError):
            store.retire(99)

    def test_invariant_checker_catches_corruption(self):
        store = BroadcastStore()
        store.insert(_broadcast(1))
        store.insert(_broadcast(2))
        store._live_positions[2] = 0  # corrupt the position index behind its back
        with pytest.raises(StoreError, match="index says 0"):
            store.check_invariants()
        store._live_positions[2] = 1
        store.get(2).end(5.0)  # ended without being retired
        with pytest.raises(StoreError, match="dead id 2"):
            store.check_invariants()


class TestRegionCache:
    def test_hit_within_ttl_is_restamped(self):
        cache = RegionCache(ttl_s=2.0)
        cache.put("us", GlobalListPage(time=10.0, broadcast_ids=(1, 2)))
        page = cache.get("us", 11.0)
        assert page is not None
        assert page.time == 11.0
        assert page.snapshot_time == 10.0
        assert page.broadcast_ids == (1, 2)
        assert page.is_stale

    def test_expires_after_ttl(self):
        cache = RegionCache(ttl_s=2.0)
        cache.put("us", GlobalListPage(time=10.0, broadcast_ids=(1,)))
        assert cache.get("us", 12.5) is None
        assert len(cache) == 0

    def test_invalidate_all_drops_every_region(self):
        cache = RegionCache(ttl_s=100.0)
        cache.put("us", GlobalListPage(time=0.0, broadcast_ids=(1,)))
        cache.put("eu", GlobalListPage(time=0.0, broadcast_ids=(2,)))
        cache.invalidate_all()
        assert cache.get("us", 0.1) is None
        assert cache.get("eu", 0.1) is None

    def test_only_fresh_pages_cacheable(self):
        cache = RegionCache()
        stale = GlobalListPage(time=5.0, broadcast_ids=(1,), snapshot_time=1.0)
        with pytest.raises(StoreError):
            cache.put("us", stale)

    def test_service_invalidates_on_lifecycle(self):
        cache = RegionCache(ttl_s=100.0)
        service = LivestreamService(region_cache=cache)
        service.users.register_many(5)
        cache.put("us", GlobalListPage(time=0.0, broadcast_ids=(9,)))
        broadcast = service.start_broadcast(1, time=1.0)
        assert cache.get("us", 1.1) is None  # start invalidated
        cache.put("us", GlobalListPage(time=2.0, broadcast_ids=(9,)))
        service.end_broadcast(broadcast.broadcast_id, time=3.0)
        assert cache.get("us", 3.1) is None  # end invalidated


operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(0, 10**6)),
    min_size=1,
    max_size=120,
)


class TestLiveViewAgreement:
    """Property: for any interleaving of start/end/join, the facade count,
    the ``platform.live_broadcasts`` gauge, and the store's live list
    always agree."""

    @given(ops=operations)
    @settings(max_examples=80, deadline=None)
    def test_interleaved_lifecycle_keeps_views_agreeing(self, ops):
        metrics = MetricsRegistry()
        service = LivestreamService(metrics=metrics)
        service.users.register_many(40)
        gauge = metrics.gauge("platform.live_broadcasts")
        clock = 0.0
        live: list[int] = []
        for kind, pick in ops:
            clock += 1.0
            if kind in (0, 3) or not live:  # bias toward starts; 3 = start too
                broadcaster = 1 + pick % 40
                live.append(
                    service.start_broadcast(broadcaster, time=clock).broadcast_id
                )
            elif kind == 1:
                live.remove(ended := live[pick % len(live)])
                service.end_broadcast(ended, time=clock)
            else:
                service.join(live[pick % len(live)], 1 + pick % 40, time=clock)
            # The live list, the count and the gauge agree after every op.
            service.store.check_invariants()
            assert service.live_broadcast_count == len(live)
            assert gauge.value == float(len(live))
            assert sorted(service.store.live_ids) == sorted(live)
