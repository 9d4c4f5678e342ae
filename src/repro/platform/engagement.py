"""Viewer engagement: watch durations, hearts and comments.

Figure 5 shows engagement per broadcast is heavy-tailed — about 10% of
Periscope broadcasts collect >100 comments and >1000 hearts, with the top
broadcast at 1.35M hearts — while the 100-commenter cap flattens the
comment tail.  The model gives each viewer session a watch duration plus
Poisson heart/comment intents; comment intents beyond the cap are rejected
by the service, reproducing the flattening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.distributions import lognormal_from_median

if TYPE_CHECKING:  # annotation only; repro.service imports repro.platform
    from repro.service.facade import LivestreamService


@dataclass(frozen=True)
class ViewerSessionPlan:
    """One viewer's planned interaction with one broadcast."""

    viewer_id: int
    join_offset_s: float  # seconds after broadcast start
    watch_duration_s: float
    heart_times: tuple[float, ...]  # offsets from join
    comment_times: tuple[float, ...]  # offsets from join


@dataclass
class EngagementModel:
    """Samples viewer session plans.

    Parameters are per-viewer *rates*; the heavy tail across broadcasts
    comes from audience-size skew (more viewers, more engagement) plus a
    per-broadcast excitement multiplier.
    """

    median_watch_s: float = 90.0
    watch_sigma: float = 1.2
    heart_rate_per_min: float = 1.4
    comment_rate_per_min: float = 0.25
    heart_burst_prob: float = 0.15  # chance a viewer is an enthusiastic "tapper"
    heart_burst_multiplier: float = 10.0

    def sample_session(
        self,
        viewer_id: int,
        join_offset_s: float,
        remaining_broadcast_s: float,
        rng: np.random.Generator,
        excitement: float = 1.0,
    ) -> ViewerSessionPlan:
        """Sample one session plan for a viewer joining a broadcast."""
        if remaining_broadcast_s < 0:
            raise ValueError("viewer cannot join after the broadcast ended")
        watch = float(
            lognormal_from_median(rng, self.median_watch_s, self.watch_sigma)
        )
        watch = min(watch, remaining_broadcast_s)
        heart_rate = self.heart_rate_per_min * excitement
        if rng.random() < self.heart_burst_prob:
            heart_rate *= self.heart_burst_multiplier
        heart_times = self._poisson_times(rng, heart_rate / 60.0, watch)
        comment_times = self._poisson_times(
            rng, self.comment_rate_per_min * excitement / 60.0, watch
        )
        return ViewerSessionPlan(
            viewer_id=viewer_id,
            join_offset_s=join_offset_s,
            watch_duration_s=watch,
            heart_times=heart_times,
            comment_times=comment_times,
        )

    @staticmethod
    def _poisson_times(
        rng: np.random.Generator, rate_per_s: float, horizon_s: float
    ) -> tuple[float, ...]:
        """Event offsets of a homogeneous Poisson process on [0, horizon)."""
        if rate_per_s <= 0 or horizon_s <= 0:
            return ()
        count = int(rng.poisson(rate_per_s * horizon_s))
        if count == 0:
            return ()
        return tuple(sorted(float(t) for t in rng.random(count) * horizon_s))

    def apply_session(
        self,
        service: LivestreamService,
        broadcast_id: int,
        plan: ViewerSessionPlan,
        broadcast_start: float,
        web: bool = False,
    ) -> dict[str, int]:
        """Replay a session plan against the service.

        Returns counts of accepted hearts/comments (comments may be
        rejected by the cap).
        """
        join_time = broadcast_start + plan.join_offset_s
        service.join(broadcast_id, plan.viewer_id, join_time, web=web)
        hearts = 0
        comments_accepted = 0
        for offset in plan.heart_times:
            service.heart(broadcast_id, plan.viewer_id, join_time + offset)
            hearts += 1
        for offset in plan.comment_times:
            if service.comment(broadcast_id, plan.viewer_id, join_time + offset):
                comments_accepted += 1
        service.leave(broadcast_id, plan.viewer_id, join_time + plan.watch_duration_s)
        return {"hearts": hearts, "comments": comments_accepted}
