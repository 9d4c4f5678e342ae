"""Sparse HLS crawling and the per-pair transfer sampler against the code
they replaced.

The delay crawler keeps its 0.1 s poll grid but issues no poll while the
POP cache is fresh: it sleeps until the POP's expiry notification and
wakes at the first grid time at or after it.  ``_PerPollCrawler`` keeps
the loop that polled every step as the oracle; everything the edge
measures or draws must match it bit for bit, with strictly fewer polls.
Likewise ``_transfer_delay_formula`` is the per-call transfer formula that
:meth:`TransferModel.sampler` hoisted out of Figure 15's inner loop, and
``_geolocation_means_per_chunk`` that loop itself, one scalar draw per
variate, which ``geolocation_study`` now batches into two calls a chunk.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cdn.fastly import EdgeUnavailable, FastlyEdge
from repro.cdn.queueing import ServerQueue
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient
from repro.core.geolocation import geolocation_study
from repro.core.pipeline import DelayMeasurementCampaign
from repro.crawler.delay_crawler import POLL_INTERVAL_S, DelayCrawler
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultWindow
from repro.geo.datacenters import FASTLY_DATACENTERS, WOWZA_DATACENTERS, colocated_fastly
from repro.geo.latency import LatencyModel
from repro.simulation import CircuitBreaker
from repro.simulation.engine import Simulator


class _PerPollCrawler(DelayCrawler):
    """The HLS crawler before sparse polling: one poll every 0.1 s step,
    with the same count of polls a downed POP refuses."""

    def attach_hls(self, edge: FastlyEdge) -> None:
        self._edge = edge
        self.simulator.schedule(0.0, self._poll, label=f"crawler-poll:{self.broadcast_id}")

    def _poll(self) -> None:
        if self._stopped or self._edge is None or self.simulator.now > self.stop_after:
            return
        try:
            self._edge.poll(self.broadcast_id, self._on_chunklist)
        except EdgeUnavailable:
            self.failed_polls += 1
        self.simulator.schedule(
            POLL_INTERVAL_S, self._poll, label=f"crawler-poll:{self.broadcast_id}"
        )


class _RecordingEdge(FastlyEdge):
    """A POP that notes when each caller's polls reach it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.poll_log: list[tuple[float, object]] = []

    def poll(self, broadcast_id, callback) -> None:
        self.poll_log.append((self.simulator.now, getattr(callback, "__self__", None)))
        super().poll(broadcast_id, callback)


_DURATION_S = 45.0
_ORIGIN_OUTAGES = (
    FaultWindow(FaultKind.ORIGIN_DOWN, 9.37, 6.0),
    FaultWindow(FaultKind.ORIGIN_DOWN, 27.71, 2.5),
)
#: The crawled POP itself is down from 10 s to 15 s.
_EDGE_OUTAGE = (FaultWindow(FaultKind.EDGE_DOWN, 10.0, 5.0),)


def _pop(wowza, far: bool):
    if not far:
        return colocated_fastly(wowza)
    return max(FASTLY_DATACENTERS, key=wowza.distance_km)


def _run(
    crawler_cls,
    seed: int,
    frames_per_chunk: int = 75,
    outages: bool = False,
    breaker: bool = False,
    viewer: bool = False,
    far: bool = False,
    stop_after: float = _DURATION_S + 10.0,
    stop_at: float | None = None,
    edge_down: bool = False,
):
    """One broadcast behind a bursty mobile uplink, crawled at one POP."""
    simulator = Simulator()
    wowza_dc = WOWZA_DATACENTERS[seed % len(WOWZA_DATACENTERS)]
    wowza = WowzaIngest(wowza_dc, simulator, frames_per_chunk=frames_per_chunk)
    edge = _RecordingEdge(
        _pop(wowza_dc, far),
        simulator,
        TransferModel(),
        np.random.default_rng(seed),
        breaker_factory=(lambda: CircuitBreaker(failure_threshold=2, cooldown_s=3.0))
        if breaker
        else None,
    )
    edge.attach_broadcast(1, wowza)
    windows = (_ORIGIN_OUTAGES if outages else ()) + (_EDGE_OUTAGE if edge_down else ())
    if windows:
        injector = FaultInjector(simulator)
        injector.register_origin("origin", wowza)
        injector.register_edge("pop", edge)
        injector.arm(FaultPlan(windows))
    broadcaster = BroadcasterClient(
        broadcast_id=1, token="t", simulator=simulator, wowza=wowza,
        uplink=LastMileLink.mobile_uplink(
            np.random.default_rng(seed + 1), horizon_s=_DURATION_S, outage_rate_per_s=0.1
        ),
    )
    client = None
    if viewer:
        client = HlsViewerClient(
            viewer_id=7, broadcast_id=1, simulator=simulator, edge=edge,
            downlink=LastMileLink.stable_wifi(np.random.default_rng(seed + 2)),
            poll_interval_s=2.4, stop_after=stop_after,
        )
        client.start_polling(first_poll_at=0.37 + (seed % 7) * 0.31)
    crawler = crawler_cls(broadcast_id=1, simulator=simulator, stop_after=stop_after)
    broadcaster.start(start_time=0.0, duration_s=_DURATION_S)
    crawler.attach_hls(edge)
    if stop_at is not None:
        simulator.schedule_at(stop_at, crawler.stop)
    simulator.run(until=_DURATION_S + 40.0)
    observed = {
        "availability": edge.availability_map(1),
        "origin_pulls": edge.origin_pulls(1),
        "pull_failures": edge.pull_failures(1),
        "stale_served": edge.stale_served(1),
        "rng": edge.rng.bit_generator.state,
        "chunk_ready": wowza.record_for(1).chunk_ready,
        "viewer": None
        if client is None
        else (client.chunk_arrivals, client.chunk_response_times, client.poll_times),
        "crawler_failed_polls": crawler.failed_polls,
    }
    crawler_polls = [time for time, caller in edge.poll_log if caller is crawler]
    return observed, edge.poll_count(1), crawler_polls


def _assert_matches_oracle(**scenario) -> tuple[int, int]:
    """Run both crawlers; returns (polls issued, polls the oracle issued)."""
    expected, oracle_polls, oracle_times = _run(_PerPollCrawler, **scenario)
    got, polls, times = _run(DelayCrawler, **scenario)
    assert got == expected
    # Every poll issued lies on the oracle's float grid.
    assert set(times) <= set(oracle_times)
    assert polls <= oracle_polls
    return polls, oracle_polls


class TestCrawlerOracle:
    @pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
    @pytest.mark.parametrize("viewer", [False, True], ids=["alone", "viewer"])
    @pytest.mark.parametrize("breaker", [False, True], ids=["no-breaker", "breaker"])
    @pytest.mark.parametrize("outages", [False, True], ids=["origin-up", "outages"])
    @pytest.mark.parametrize("frames_per_chunk", [25, 75, 100])
    @pytest.mark.parametrize("seed", [3, 6, 2016])
    def test_matches_per_poll_loop(self, seed, frames_per_chunk, outages, breaker, viewer, far):
        polls, oracle_polls = _assert_matches_oracle(
            seed=seed, frames_per_chunk=frames_per_chunk, outages=outages,
            breaker=breaker, viewer=viewer, far=far,
        )
        assert polls < oracle_polls

    def test_matrix_reaches_every_edge_path(self):
        """The outage scenarios above fail pulls, land several chunks with
        one pull, and with a breaker refuse pulls the unguarded edge makes."""
        for seed in (3, 6, 2016):
            unguarded, _, _ = _run(DelayCrawler, seed=seed, outages=True, far=True)
            guarded, _, _ = _run(DelayCrawler, seed=seed, outages=True, breaker=True, far=True)
            for observed in (unguarded, guarded):
                assert observed["pull_failures"] > 0
                landed = observed["availability"].values()
                assert len(set(landed)) < len(landed)
            assert guarded["origin_pulls"] < unguarded["origin_pulls"]

    @pytest.mark.parametrize("seed", [3, 2016])
    @pytest.mark.parametrize("stop_after", [0.0, 12.95, 20.0, 30.0])
    def test_stop_after_boundary(self, seed, stop_after):
        """Bounds at the first poll and at times the crawler may be asleep,
        mid-pull or stepping through an uplink stall."""
        _assert_matches_oracle(seed=seed, stop_after=stop_after, viewer=True)

    @pytest.mark.parametrize("at_bound", [True, False], ids=["wake-at-bound", "wake-past-bound"])
    def test_wake_on_the_stop_after_grid_time(self, at_bound):
        """A wake landing exactly on ``stop_after`` still polls; one grid
        step later it does not."""
        ready = _run(DelayCrawler, seed=3)[0]["chunk_ready"][4]
        grid = [0.0]
        while grid[-1] < ready:
            grid.append(grid[-1] + 0.1)
        bound = grid[-1] if at_bound else grid[-2]
        _assert_matches_oracle(seed=3, stop_after=bound)
        observed, _, times = _run(DelayCrawler, seed=3, stop_after=bound)
        assert (grid[-1] in times) == at_bound
        assert (4 in observed["availability"]) == at_bound

    @pytest.mark.parametrize("stop_at", [0.0, 6.05, 17.3])
    def test_stop(self, stop_at):
        _assert_matches_oracle(seed=11, stop_at=stop_at, viewer=True, far=True)

    def test_default_campaign_event_and_poll_budget(self, monkeypatch):
        """At its default arguments the delay campaign polled 151,834 times in
        160,830 events when the crawler polled every step."""
        counts = {"events": 0, "polls": 0}
        run, poll = Simulator.run, FastlyEdge.poll

        def counting_run(simulator, *args, **kwargs):
            before = simulator.events_processed
            run(simulator, *args, **kwargs)
            counts["events"] += simulator.events_processed - before

        def counting_poll(edge, *args):
            counts["polls"] += 1
            poll(edge, *args)

        monkeypatch.setattr(Simulator, "run", counting_run)
        monkeypatch.setattr(FastlyEdge, "poll", counting_poll)
        traces = DelayMeasurementCampaign(n_broadcasts=60, seed=2016).run()
        assert sum(trace.chunk_count for trace in traces) == 4488
        assert counts["events"] <= 20_000
        assert counts["polls"] <= 10_000

    def test_queued_pop_refused(self):
        simulator = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator)
        queue = ServerQueue(simulator)
        edge = FastlyEdge(
            colocated_fastly(WOWZA_DATACENTERS[0]), simulator, TransferModel(),
            np.random.default_rng(0), queue=queue,
        )
        edge.attach_broadcast(1, wowza)
        with pytest.raises(ValueError, match="queued POP"):
            DelayCrawler(broadcast_id=1, simulator=simulator).attach_hls(edge)


class TestDownedPop:
    """A POP taken down mid-crawl refuses polls with ``EdgeUnavailable``.
    The crawler counts each refusal and keeps stepping its grid, so the run
    completes and measures what the per-poll loop with the same catch does."""

    @pytest.mark.parametrize("viewer", [False, True], ids=["alone", "viewer"])
    @pytest.mark.parametrize("seed", [3, 6, 2016])
    def test_crawl_survives_edge_down(self, seed, viewer):
        expected, _, oracle_times = _run(_PerPollCrawler, seed=seed, viewer=viewer, edge_down=True)
        got, _, times = _run(DelayCrawler, seed=seed, viewer=viewer, edge_down=True)
        oracle_failed = expected.pop("crawler_failed_polls")
        failed = got.pop("crawler_failed_polls")
        assert got == expected  # availability_map, origin_pulls and the rest
        assert set(times) <= set(oracle_times)
        # The oracle steps through the whole window; the sparse crawler polls
        # a subset of that grid, and every poll it makes there is refused.
        assert oracle_failed == 50
        assert failed <= oracle_failed
        assert failed == sum(1 for time in times if 10.0 <= time < 15.0)
        assert any(landed >= 15.0 for landed in got["availability"].values())

    def test_crawler_polls_the_downed_pop(self):
        """At seed 2016 the first expiry inside the window wakes the crawler
        while the POP is down, and it steps the grid until the POP is back."""
        observed, _, times = _run(DelayCrawler, seed=2016, edge_down=True)
        refused = [time for time in times if 10.0 <= time < 15.0]
        assert observed["crawler_failed_polls"] == len(refused) > 0
        after = [time for time in times if time >= 15.0]
        assert after and after[0] - refused[-1] < 0.15


class TestFreshAfterPull:
    def test_chunk_finished_mid_pull_lands_with_it(self):
        """The origin snapshot is taken as a pull lands, so a chunk that
        completes while the pull is in flight arrives with that pull, and
        the cache is fresh afterwards."""
        simulator = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=2)
        far = _pop(WOWZA_DATACENTERS[0], far=True)
        edge = FastlyEdge(far, simulator, TransferModel(), np.random.default_rng(4))
        edge.attach_broadcast(1, wowza)
        wowza.start_broadcast(1, "t")
        # Chunk 0 lands at 1.0, chunk 1 at 1.05: inside a far pull.
        wowza.ingest(
            1, np.array([0.0, 0.04, 0.08, 0.12]), np.array([0.5, 1.0, 1.02, 1.05]), 0.04
        )
        responses = []
        simulator.schedule_at(1.0, lambda: edge.poll(1, lambda *a: responses.append(a)))
        simulator.run(until=1.01)
        assert edge.is_stale(1)
        simulator.run()
        assert edge.origin_pulls(1) == 1
        (chunklist, landed), = responses
        assert landed > 1.05
        assert [entry.chunk_index for entry in chunklist.entries] == [0, 1]
        assert edge.availability_map(1) == {0: landed, 1: landed}
        assert not edge.is_stale(1)

    def test_expiry_watcher_runs_once_the_cache_is_stale(self):
        simulator = Simulator()
        wowza = WowzaIngest(WOWZA_DATACENTERS[0], simulator, frames_per_chunk=2)
        edge = FastlyEdge(
            colocated_fastly(WOWZA_DATACENTERS[0]), simulator, TransferModel(),
            np.random.default_rng(4),
        )
        edge.attach_broadcast(1, wowza)
        seen = []
        edge.watch_expiry(1, lambda: seen.append((simulator.now, edge.is_stale(1))))
        wowza.start_broadcast(1, "t")
        wowza.ingest(1, np.array([0.0, 0.04, 0.08, 0.12]), np.array([0.1, 0.2, 0.3, 0.4]), 0.04)
        simulator.run()
        assert seen == [(0.2, True), (0.4, True)]
        assert edge.poll_count(1) == 0


# -- the transfer sampler ------------------------------------------------------


def _transfer_delay_formula(model, wowza, fastly, rng) -> float:
    """``TransferModel.transfer_delay_s`` before the per-pair sampler."""
    handoff = model.handoff_s * float(rng.lognormal(0.0, model.handoff_jitter_sigma))
    if model.is_colocated(wowza, fastly):
        return handoff
    gateway = model.gateway_for(wowza)
    if gateway.city == fastly.city:
        return handoff
    coordination = model.coordination_s * float(
        rng.lognormal(0.0, model.coordination_jitter_sigma)
    )
    rtt = model.latency.rtt_s(gateway.location, fastly.location, rng)
    serialization = model.chunk_bytes * 8.0 / model.interpop_bandwidth_bps
    return handoff + coordination + rtt + serialization


_MODELS = {
    "default": TransferModel(),
    "no-network-jitter": TransferModel(latency=LatencyModel(jitter_sigma=0)),
}


class TestTransferSampler:
    @pytest.mark.parametrize("model_name", sorted(_MODELS))
    @pytest.mark.parametrize("wowza", WOWZA_DATACENTERS, ids=lambda dc: dc.name)
    def test_matches_formula_on_every_catalog_pair(self, model_name, wowza):
        model = _MODELS[model_name]
        for fastly in FASTLY_DATACENTERS:
            seed = [WOWZA_DATACENTERS.index(wowza), FASTLY_DATACENTERS.index(fastly)]
            expected_rng, sampler_rng, call_rng = (np.random.default_rng(seed) for _ in range(3))
            expected = [_transfer_delay_formula(model, wowza, fastly, expected_rng) for _ in range(5)]
            sample = model.sampler(wowza, fastly)
            assert [sample(sampler_rng) for _ in range(5)] == expected
            assert [model.transfer_delay_s(wowza, fastly, call_rng) for _ in range(5)] == expected
            state = expected_rng.bit_generator.state
            assert sampler_rng.bit_generator.state == state
            assert call_rng.bit_generator.state == state

    def test_catalog_covers_every_branch(self):
        model = TransferModel()
        kinds = {
            (model.is_colocated(w, f), model.gateway_for(w).city == f.city)
            for w in WOWZA_DATACENTERS
            for f in FASTLY_DATACENTERS
        }
        # Co-located, gateway-city (Sao Paulo's gateway is abroad) and remote.
        assert kinds == {(True, True), (False, True), (False, False)}


def _geolocation_means_per_chunk(model, rng, broadcasts_per_pair, chunks_per_broadcast):
    """``geolocation_study``'s per-broadcast means as its loop drew them
    before the draws were batched: per chunk, the per-call transfer formula
    (one ``lognormal`` per factor) plus one ``uniform`` poll offset."""
    means = []
    for wowza in WOWZA_DATACENTERS:
        for fastly in FASTLY_DATACENTERS:
            for _ in range(broadcasts_per_pair):
                delays = [
                    _transfer_delay_formula(model, wowza, fastly, rng)
                    + float(rng.uniform(0.0, 0.1))
                    for _ in range(chunks_per_broadcast)
                ]
                means.append(float(np.mean(delays)))
    return means


class TestGeolocationStudy:
    @pytest.mark.parametrize("model_name", sorted(_MODELS))
    @pytest.mark.parametrize("seed", [7, 2016])
    def test_matches_per_chunk_loop(self, model_name, seed):
        model = _MODELS[model_name]
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = _geolocation_means_per_chunk(model, expected_rng, 3, 40)
        samples = geolocation_study(
            rng, broadcasts_per_pair=3, chunks_per_broadcast=40, transfer=model
        )
        assert [sample.mean_delay_s.hex() for sample in samples] == [
            mean.hex() for mean in expected
        ]
        assert rng.bit_generator.state == expected_rng.bit_generator.state

