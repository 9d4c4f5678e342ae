"""Full-system simulation of one popular broadcast (Figure 8 in motion).

Everything the architecture diagram shows, running together in one
event-driven simulation:

* the control channel: viewers join through the service, which applies
  the RTMP→HLS spillover and the commenter cap,
* the video channel: the broadcaster uploads to its nearest Wowza DC;
  RTMP viewers get pushed frames, HLS viewers poll their nearest Fastly
  POP,
* the message channel: viewers react to a chosen on-stream moment the
  instant they *see* it, and their hearts ride the PubNub-style channel
  back to the broadcaster.

The outcome quantifies, per tier and event-level (not analytically), the
paper's interactivity story: how many viewers got the interactive tier,
what each tier's video lag was, and how stale the broadcaster's incoming
hearts were.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cdn.assignment import CdnAssignment
from repro.cdn.fastly import FastlyEdge
from repro.cdn.transfer import TransferModel
from repro.cdn.wowza import WowzaIngest
from repro.client.broadcaster import BroadcasterClient
from repro.client.network import LastMileLink
from repro.client.viewer_client import HlsViewerClient, RtmpViewerClient
from repro.crawler.delay_crawler import DelayCrawler
from repro.geo.coordinates import GeoPoint
from repro.geo.regions import sample_user_location
from repro.platform.apps import PERISCOPE_PROFILE, AppProfile
from repro.platform.broadcasts import DeliveryTier
from repro.protocols.messages import MessageChannel, MessageKind, StreamMessage
from repro.service.facade import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workload.viewers import ViewerArrivalModel


@dataclass(frozen=True)
class TierOutcome:
    """Event-level measurements for one delivery tier."""

    tier: str
    viewers: int
    mean_video_lag_s: float
    mean_heart_staleness_s: float
    can_comment: int


@dataclass(frozen=True)
class FullBroadcastResult:
    """Everything measured from one full-system broadcast."""

    total_viewers: int
    rtmp: TierOutcome
    hls: TierOutcome
    hearts_received: int
    server_frame_pushes: int
    server_polls: int

    @property
    def interactive_fraction(self) -> float:
        if self.total_viewers == 0:
            return 0.0
        return self.rtmp.viewers / self.total_viewers


@dataclass
class FullBroadcastSimulation:
    """One broadcast, one audience, all three channels of Figure 8."""

    n_viewers: int = 250
    duration_s: float = 40.0
    moment_time_s: float = 30.0  # the on-stream event viewers react to
    reaction_time_s: float = 1.5
    heart_probability: float = 0.8
    seed: int = 12
    profile: AppProfile = field(default_factory=lambda: PERISCOPE_PROFILE)
    broadcaster_location: GeoPoint = field(default_factory=lambda: GeoPoint(40.71, -74.01))

    def __post_init__(self) -> None:
        if self.n_viewers <= 0:
            raise ValueError("need at least one viewer")
        if not 0 < self.moment_time_s < self.duration_s:
            raise ValueError("the moment must happen during the broadcast")

    def run(self) -> FullBroadcastResult:
        streams = RandomStreams(self.seed)
        simulator = Simulator()
        assignment = CdnAssignment()
        transfer = TransferModel()

        # -- control channel: service + joins --------------------------------
        service = LivestreamService(profile=self.profile)
        broadcaster_user = service.users.register()
        viewer_users = service.users.register_many(self.n_viewers)
        broadcast = service.start_broadcast(broadcaster_user.user_id, time=0.0)

        arrivals = ViewerArrivalModel()
        offsets = arrivals.sample_join_offsets(
            streams.get("joins"), self.n_viewers, self.duration_s * 0.9
        )
        tiers: dict[int, DeliveryTier] = {}
        for user, offset in zip(viewer_users, offsets):
            record = service.join(broadcast.broadcast_id, user.user_id, float(offset))
            tiers[user.user_id] = record.tier

        # -- video channel: CDN + clients --------------------------------------
        wowza_dc = assignment.wowza_for_broadcaster(self.broadcaster_location)
        wowza = WowzaIngest(
            wowza_dc, simulator, frames_per_chunk=self.profile.frames_per_chunk
        )
        broadcaster = BroadcasterClient(
            broadcast_id=broadcast.broadcast_id,
            token=f"full-{self.seed}",
            simulator=simulator,
            wowza=wowza,
            uplink=LastMileLink.stable_wifi(streams.get("uplink")),
            frame_interval_s=self.profile.frame_interval_s,
        )
        broadcaster.start(start_time=0.0, duration_s=self.duration_s)

        edges: dict[str, FastlyEdge] = {}
        placement = streams.get("placement")
        poll_rng = streams.get("poll")
        rtmp_clients: dict[int, RtmpViewerClient] = {}
        hls_clients: dict[int, HlsViewerClient] = {}
        for user, offset in zip(viewer_users, offsets):
            location = sample_user_location(placement)
            downlink_rng = streams.get(f"down/{user.user_id}")
            if tiers[user.user_id] is DeliveryTier.RTMP:
                propagation = transfer.latency.propagation_s(wowza_dc.location, location)
                client = RtmpViewerClient(
                    viewer_id=user.user_id,
                    broadcast_id=broadcast.broadcast_id,
                    simulator=simulator,
                    downlink=LastMileLink(
                        rng=downlink_rng, base_delay_s=0.05 + propagation, jitter_sigma=0.15
                    ),
                )
                # Frames before the join are not received; attach at join time.
                simulator.schedule_at(
                    float(offset), lambda c=client: c.attach(wowza), label="join-rtmp"
                )
                rtmp_clients[user.user_id] = client
            else:
                pop = assignment.fastly_for_viewer(location)
                if pop.name not in edges:
                    edge = FastlyEdge(pop, simulator, transfer, streams.get(f"edge/{pop.name}"))
                    edge.attach_broadcast(broadcast.broadcast_id, wowza)
                    edges[pop.name] = edge
                propagation = transfer.latency.propagation_s(pop.location, location)
                client = HlsViewerClient(
                    viewer_id=user.user_id,
                    broadcast_id=broadcast.broadcast_id,
                    simulator=simulator,
                    edge=edges[pop.name],
                    downlink=LastMileLink(
                        rng=downlink_rng, base_delay_s=0.05 + propagation, jitter_sigma=0.15
                    ),
                    poll_interval_s=float(
                        poll_rng.uniform(*self.profile.polling_interval_range_s)
                    ),
                    stop_after=self.duration_s + 30.0,
                )
                client.start_polling(first_poll_at=float(offset))
                hls_clients[user.user_id] = client

        # Keep transfers prompt at every serving POP, as production's many
        # viewers (and the paper's crawler) do.
        for edge in edges.values():
            crawler = DelayCrawler(
                broadcast_id=broadcast.broadcast_id,
                simulator=simulator,
                stop_after=self.duration_s + 10.0,
            )
            crawler.attach_hls(edge)

        simulator.run(until=self.duration_s + 60.0)

        # -- message channel: hearts about the moment ---------------------------
        channel = MessageChannel(broadcast_id=broadcast.broadcast_id)
        heart_rng = streams.get("hearts")
        staleness: dict[str, list[float]] = {"rtmp": [], "hls": []}
        lags: dict[str, list[float]] = {"rtmp": [], "hls": []}
        moment_frame = int(self.moment_time_s / self.profile.frame_interval_s)
        moment_chunk = moment_frame // self.profile.frames_per_chunk
        # Only viewers already watching when the moment happened react to
        # it; late joiners replaying the HLS window don't heart the past.
        joined_before_moment = {
            user.user_id
            for user, offset in zip(viewer_users, offsets)
            if offset <= self.moment_time_s
        }

        for user_id, client in rtmp_clients.items():
            if user_id not in joined_before_moment:
                continue
            received = np.flatnonzero(client.frame_sequences == moment_frame)
            if not received.size:
                continue  # joined after the moment or left before
            seen_at = float(client.frame_arrivals[received[0]])
            lags["rtmp"].append(seen_at - self.moment_time_s)
            self._maybe_heart(
                service, channel, heart_rng, broadcast.broadcast_id, user_id,
                seen_at, staleness["rtmp"],
            )
        for user_id, client in hls_clients.items():
            if user_id not in joined_before_moment:
                continue
            if moment_chunk not in client.chunk_arrivals:
                continue
            seen_at = client.chunk_arrivals[moment_chunk] + (
                moment_frame % self.profile.frames_per_chunk
            ) * self.profile.frame_interval_s
            lags["hls"].append(seen_at - self.moment_time_s)
            self._maybe_heart(
                service, channel, heart_rng, broadcast.broadcast_id, user_id,
                seen_at, staleness["hls"],
            )

        service.end_broadcast(broadcast.broadcast_id, self.duration_s)

        # Count real viewers' polls only (the helper crawler's 0.1 s polls
        # stand in for the big audiences production POPs see).
        polls = sum(len(client.poll_times) for client in hls_clients.values())
        frames_ingested = len(wowza.record_for(broadcast.broadcast_id).frame_arrivals)
        return FullBroadcastResult(
            total_viewers=self.n_viewers,
            rtmp=self._tier_outcome(service, broadcast, "rtmp", rtmp_clients, lags, staleness),
            hls=self._tier_outcome(service, broadcast, "hls", hls_clients, lags, staleness),
            hearts_received=len(broadcast.hearts),
            server_frame_pushes=frames_ingested * len(rtmp_clients),
            server_polls=polls,
        )

    def _maybe_heart(
        self,
        service: LivestreamService,
        channel: MessageChannel,
        rng: np.random.Generator,
        broadcast_id: int,
        user_id: int,
        seen_at: float,
        staleness_bucket: list[float],
    ) -> None:
        if rng.random() >= self.heart_probability:
            return
        sent = seen_at + float(rng.exponential(self.reaction_time_s))
        message = StreamMessage(
            kind=MessageKind.HEART, sender_id=user_id, sent_time=sent,
            broadcast_id=broadcast_id,
        )
        arrival = sent + channel.delivery_latency(rng)
        service.heart(broadcast_id, user_id, sent)
        staleness_bucket.append(arrival - self.moment_time_s)

    def _tier_outcome(
        self,
        service: LivestreamService,
        broadcast,
        tier: str,
        clients: dict,
        lags: dict[str, list[float]],
        staleness: dict[str, list[float]],
    ) -> TierOutcome:
        # Comment eligibility in practice: the first `comment_cap` joiners
        # (who are exactly the RTMP-tier viewers when the caps align).
        by_join = sorted(broadcast.views, key=lambda view: view.join_time)
        eligible_ids = {
            view.viewer_id for view in by_join[: service.profile.comment_cap]
        }
        commenters = sum(1 for user_id in clients if user_id in eligible_ids)
        return TierOutcome(
            tier=tier,
            viewers=len(clients),
            mean_video_lag_s=float(np.mean(lags[tier])) if lags[tier] else float("nan"),
            mean_heart_staleness_s=(
                float(np.mean(staleness[tier])) if staleness[tier] else float("nan")
            ),
            can_comment=commenters,
        )
