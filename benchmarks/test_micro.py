"""Micro-benchmarks of the core building blocks.

Unlike the figure benchmarks (one full pipeline run each), these measure
the throughput of the hot inner components with proper repetition, so
performance regressions in the substrates are visible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.playback import PlaybackConfig, simulate_playback
from repro.core.polling import polling_delays
from repro.protocols.rtmp import RtmpPacket, parse_rtmp_packet
from repro.simulation.engine import Simulator
from repro.social.generation import FollowGraphConfig, generate_follow_graph


def test_event_engine_throughput(benchmark):
    """Schedule-and-run 10K events (the delay campaign runs millions)."""

    def run():
        simulator = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1

        for i in range(10_000):
            simulator.schedule(i * 0.001, tick)
        simulator.run()
        return count

    assert benchmark(run) == 10_000


def test_playback_simulation_throughput(benchmark):
    """One 10-minute RTMP trace (15K frames) through the player."""
    rng = np.random.default_rng(0)
    arrivals = np.cumsum(np.abs(rng.normal(0.04, 0.01, size=15_000)))
    config = PlaybackConfig(prebuffer_s=1.0, unit_duration_s=0.04)

    result = benchmark(simulate_playback, arrivals, config)
    assert result.played.all()


def test_polling_simulation_throughput(benchmark):
    """Polling delays over a 1000-chunk availability trace."""
    rng = np.random.default_rng(0)
    availability = np.cumsum(3.0 + rng.normal(0, 0.1, size=1_000))

    delays = benchmark(polling_delays, availability, 2.8, 0.0)
    assert len(delays) == 1_000


def test_rtmp_parse_throughput(benchmark):
    """Encode+parse round trip (the tamperer does this per packet)."""
    wire = RtmpPacket(
        packet_type=2, token="tok-1234", sequence=42, timestamp=1.68,
        body=b"\x42" * 4096,
    ).encode()

    packet = benchmark(parse_rtmp_packet, wire)
    assert packet.sequence == 42


def test_follow_graph_generation_throughput(benchmark):
    """A 2000-node graph (~40K edges) with triadic closure."""

    def run():
        rng = np.random.default_rng(7)
        return generate_follow_graph(
            FollowGraphConfig(n_nodes=2_000, mean_out_degree=10.0), rng
        )

    graph = benchmark.pedantic(run, rounds=3, iterations=1)
    assert graph.node_count == 2_000


def test_global_list_sampling_throughput(benchmark):
    """The 50-of-N global-list sample under heavy live load."""
    from repro.service import LivestreamService

    service = LivestreamService()
    service.users.register_many(5_000)
    for i in range(5_000):
        service.start_broadcast(1 + i, time=0.0)
    rng = np.random.default_rng(0)

    page = benchmark(service.global_list, 1.0, rng)
    assert len(page.broadcast_ids) == 50
