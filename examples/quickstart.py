#!/usr/bin/env python3
"""Quickstart: the library in two minutes.

1. Generate a scaled-down Periscope workload trace and print Table-1-style
   statistics.
2. Stream one broadcast through the simulated CDN with an RTMP viewer and
   an HLS viewer, and print each tier's end-to-end delay — the paper's
   central contrast (Figure 11).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.geo.coordinates import GeoPoint
from repro.parallel import generate_trace
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workload.trace import TraceConfig


def generate_workload() -> None:
    print("=== 1. Workload trace (1/5000 of Periscope, 98 days) ===")
    trace = generate_trace(TraceConfig.periscope(scale=0.0002, seed=1))
    row = trace.dataset.table1_row()
    print(f"broadcasts:     {row['broadcasts']:>10,}")
    print(f"broadcasters:   {row['broadcasters']:>10,}")
    print(f"total views:    {row['total_views']:>10,}")
    print(f"unique viewers: {row['unique_viewers']:>10,}")
    daily = trace.dataset.daily_broadcast_counts()
    print(f"daily broadcasts, first week:  {daily[:7].tolist()}")
    print(f"daily broadcasts, last week:   {daily[-7:].tolist()}")
    print()


def stream_one_broadcast() -> None:
    print("=== 2. One broadcast through the CDN ===")
    streams = RandomStreams(7)
    simulator = Simulator()
    assignment = CdnAssignment()

    # A broadcaster in Los Angeles, a viewer in New York.
    broadcaster_location = GeoPoint(34.05, -118.24)
    viewer_location = GeoPoint(40.71, -74.01)
    wowza_dc = assignment.wowza_for_broadcaster(broadcaster_location)
    fastly_dc = assignment.fastly_for_viewer(viewer_location)
    print(f"broadcaster -> Wowza ingest at {wowza_dc.city} ({wowza_dc.name})")
    print(f"HLS viewer  -> Fastly POP at {fastly_dc.city} ({fastly_dc.name})")

    wowza = WowzaIngest(wowza_dc, simulator)
    edge = FastlyEdge(fastly_dc, simulator, TransferModel(), streams.get("edge"))
    edge.attach_broadcast(1, wowza)

    broadcaster = BroadcasterClient(
        broadcast_id=1, token="quickstart", simulator=simulator, wowza=wowza,
        uplink=LastMileLink.stable_wifi(streams.get("uplink")),
    )
    rtmp_viewer = RtmpViewerClient(
        viewer_id=100, broadcast_id=1, simulator=simulator,
        downlink=LastMileLink.stable_wifi(streams.get("rtmp-down")),
    )
    hls_viewer = HlsViewerClient(
        viewer_id=200, broadcast_id=1, simulator=simulator, edge=edge,
        downlink=LastMileLink.stable_wifi(streams.get("hls-down")),
        poll_interval_s=2.4, stop_after=70.0,
    )

    broadcaster.start(start_time=0.0, duration_s=60.0)
    rtmp_viewer.attach(wowza)
    hls_viewer.start_polling(first_poll_at=0.5)
    simulator.run(until=90.0)

    rtmp_delay = float(np.mean(rtmp_viewer.end_to_end_delays()))
    hls_delay = float(np.mean(hls_viewer.end_to_end_delays()))
    print(f"frames delivered over RTMP: {len(rtmp_viewer.frame_arrivals)}")
    print(f"chunks delivered over HLS:  {len(hls_viewer.chunk_arrivals)}")
    print(f"mean network delay, RTMP (push):  {rtmp_delay:6.2f} s")
    print(f"mean network delay, HLS (polled): {hls_delay:6.2f} s")
    print(f"-> HLS pays {hls_delay / rtmp_delay:.0f}x the delay for scalability"
          " (before client buffering widens it further; see fig11).")


if __name__ == "__main__":
    generate_workload()
    stream_one_broadcast()
