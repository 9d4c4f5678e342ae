"""Interactivity analysis: what delay does to feedback (§1's motivation).

The paper's introduction argues that delivery delay corrupts the
real-time feedback loop: a lagging viewer sends "hearts" about a moment
the broadcaster showed seconds ago, and the broadcaster misattributes
them to whatever is on screen *now*; a delayed viewer votes after the
poll has closed.  This module quantifies both effects on top of the
delay-breakdown machinery:

* **heart staleness** — how old the referenced content is when a heart
  reaches the broadcaster, per delivery tier;
* **misattribution** — the probability a heart lands while a *different*
  scene is showing (scenes change every ``scene_length_s``);
* **poll participation** — the fraction of viewers whose answer to an
  in-stream poll arrives before the poll closes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.delay_breakdown import ControlledExperiment
from repro.protocols.messages import MessageChannel
from repro.simulation.randomness import substream_seed


@dataclass(frozen=True)
class TierInteractivity:
    """Feedback quality for one delivery tier."""

    tier: str
    video_lag_s: float
    mean_heart_staleness_s: float
    misattribution_rate: float
    poll_participation: float


@dataclass
class InteractivityStudy:
    """Evaluates feedback quality across the RTMP and HLS tiers.

    Parameters
    ----------
    scene_length_s:
        How long one "moment" lasts on stream; a heart arriving after the
        moment ended is misattributed.
    poll_window_s:
        How long the broadcaster leaves an audience poll open.
    reaction_time_s:
        Human delay between seeing a moment and tapping.
    """

    scene_length_s: float = 8.0
    poll_window_s: float = 15.0
    reaction_time_s: float = 1.5
    seed: int = 31
    samples_per_tier: int = 2000
    message_channel: MessageChannel = field(
        default_factory=lambda: MessageChannel(broadcast_id=0)
    )

    def __post_init__(self) -> None:
        if self.scene_length_s <= 0 or self.poll_window_s <= 0:
            raise ValueError("scene length and poll window must be positive")
        if self.reaction_time_s < 0:
            raise ValueError("reaction time must be non-negative")

    def run(
        self,
        repetitions: int = 3,
        duration_s: float = 90.0,
    ) -> dict[str, TierInteractivity]:
        """Measure both tiers using the controlled-experiment delays."""
        rtmp, hls = ControlledExperiment(seed=self.seed, duration_s=duration_s).run(
            repetitions=repetitions
        )
        return {
            "rtmp": self.evaluate_tier("rtmp", rtmp.total_s),
            "hls": self.evaluate_tier("hls", hls.total_s),
        }

    def evaluate_tier(self, tier: str, video_lag_s: float) -> TierInteractivity:
        """Feedback quality for a tier with the given end-to-end video lag.

        A heart about the moment starting at t=0 is sent at
        ``video_lag + reaction`` and arrives after the (fast) message
        channel's latency.  It is misattributed when it lands after the
        moment's scene ended.
        """
        if video_lag_s < 0:
            raise ValueError("video lag must be non-negative")
        rng = np.random.default_rng(substream_seed(self.seed, f"interactivity/{tier}"))
        reactions = rng.exponential(self.reaction_time_s, size=self.samples_per_tier)
        message_delays = np.array(
            [self.message_channel.delivery_latency(rng) for _ in range(self.samples_per_tier)]
        )
        # The moment occurs uniformly inside its scene.
        offset_in_scene = rng.uniform(0.0, self.scene_length_s, size=self.samples_per_tier)
        staleness = video_lag_s + reactions + message_delays
        arrival_in_scene = offset_in_scene + staleness
        misattributed = arrival_in_scene > self.scene_length_s
        poll_answered_in_time = staleness <= self.poll_window_s
        return TierInteractivity(
            tier=tier,
            video_lag_s=video_lag_s,
            mean_heart_staleness_s=float(staleness.mean()),
            misattribution_rate=float(misattributed.mean()),
            poll_participation=float(poll_answered_in_time.mean()),
        )

    def lag_sweep(self, lags_s: list[float]) -> dict[float, TierInteractivity]:
        """Feedback quality as a pure function of video lag (for plots)."""
        return {lag: self.evaluate_tier(f"lag{lag:g}", lag) for lag in lags_s}
