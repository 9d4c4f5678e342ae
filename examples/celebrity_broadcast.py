#!/usr/bin/env python3
"""Scenario: a celebrity broadcast and the delayed-hearts problem.

The paper's introduction motivates low latency with interactivity: a
"lagging" audience sends hearts about moments the broadcaster showed
seconds ago, and the broadcaster misreads them as reactions to what is on
screen *now*.  This example builds a popular broadcast end to end:

* a broadcaster with a large follower count (notifications create the
  audience — Figure 7's mechanism),
* the first 100 viewers on the RTMP tier, the rest spilled to HLS (§4.1),
* every viewer hearts a specific on-stream "moment"; we measure how stale
  each tier's hearts are when they reach the broadcaster.

Run:  python examples/celebrity_broadcast.py
"""

from __future__ import annotations

import numpy as np

from repro.core.delay_breakdown import ControlledExperiment
from repro.platform.broadcasts import DeliveryTier
from repro.protocols.messages import MessageChannel, MessageKind, StreamMessage
from repro.service import LivestreamService
from repro.simulation.randomness import RandomStreams
from repro.social.graph import FollowGraph
from repro.social.notifications import NotificationService

FOLLOWERS = 5_000
OPEN_RATE = 0.06
MOMENT_TIME_S = 30.0  # the broadcaster does something heart-worthy here


def build_audience() -> tuple[LivestreamService, int, list[int]]:
    """Create the celebrity, their followers, and the notified joiners."""
    streams = RandomStreams(11)
    graph = FollowGraph()
    celebrity = 1
    for follower in range(2, 2 + FOLLOWERS):
        graph.add_follow(follower, celebrity)

    service = LivestreamService()
    service.users.register_many(2 + FOLLOWERS)
    notifications = NotificationService(graph=graph, open_rate=OPEN_RATE)
    joiners = notifications.joining_followers(celebrity, streams.get("notify"))
    broadcast = service.start_broadcast(celebrity, time=0.0)

    join_rng = streams.get("joins")
    for viewer in joiners:
        offset = float(join_rng.exponential(20.0))
        service.join(broadcast.broadcast_id, viewer, time=min(offset, 600.0))
    return service, broadcast.broadcast_id, joiners


def main() -> None:
    service, broadcast_id, joiners = build_audience()
    broadcast = service.get_broadcast(broadcast_id)
    rtmp_viewers = [v for v in broadcast.views if v.tier is DeliveryTier.RTMP]
    hls_viewers = [v for v in broadcast.views if v.tier is DeliveryTier.HLS]
    print(f"followers notified: {FOLLOWERS}, joined: {len(joiners)}")
    print(f"RTMP (interactive) tier: {len(rtmp_viewers)} viewers")
    print(f"HLS (scalable) tier:     {len(hls_viewers)} viewers")
    print(f"comment-eligible viewers: first {service.profile.comment_cap} only\n")

    # Per-tier video lag from the controlled experiment (Figure 11).
    rtmp_breakdown, hls_breakdown = ControlledExperiment(
        seed=5, duration_s=90.0
    ).run(repetitions=3)
    rtmp_lag = rtmp_breakdown.total_s
    hls_lag = hls_breakdown.total_s
    print(f"video lag, RTMP tier: {rtmp_lag:5.1f} s")
    print(f"video lag, HLS tier:  {hls_lag:5.1f} s\n")

    # Every viewer hearts "the moment" the instant they SEE it; the heart
    # travels back over the fast message channel (PubNub, ~0.2 s).
    streams = RandomStreams(13)
    channel = MessageChannel(broadcast_id=broadcast_id)
    heart_arrivals: dict[str, list[float]] = {"rtmp": [], "hls": []}
    message_rng = streams.get("messages")
    for tier_name, viewers, lag in (
        ("rtmp", rtmp_viewers, rtmp_lag),
        ("hls", hls_viewers, hls_lag),
    ):
        for view in viewers:
            seen_at = MOMENT_TIME_S + lag
            message = StreamMessage(
                kind=MessageKind.HEART,
                sender_id=view.viewer_id,
                sent_time=seen_at,
                broadcast_id=broadcast_id,
            )
            heart_arrivals[tier_name].append(
                message.sent_time + channel.delivery_latency(message_rng)
            )

    print(f"the 'moment' happens at t={MOMENT_TIME_S:.0f}s; hearts arrive at:")
    for tier_name in ("rtmp", "hls"):
        arrivals = np.array(heart_arrivals[tier_name])
        if len(arrivals) == 0:
            continue
        staleness = arrivals - MOMENT_TIME_S
        print(
            f"  {tier_name.upper():<5} median t={np.median(arrivals):6.1f}s "
            f"(staleness {np.median(staleness):5.1f}s)"
        )
    print(
        "\n-> HLS hearts reference content from ~"
        f"{hls_lag:.0f} s ago; a broadcaster reading them as live feedback "
        "misattributes the applause — the paper's interactivity problem."
    )


if __name__ == "__main__":
    main()
