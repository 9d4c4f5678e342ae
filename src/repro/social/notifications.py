"""Follower notifications: the bridge from the social graph to audiences.

When a user starts a broadcast, all followers receive a push notification
(§2.1).  Figure 7's correlation between follower count and per-broadcast
viewers emerges from followers opening those notifications with some
probability, on top of organic discovery through the global list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.social.graph import CompiledGraph


@dataclass
class NotificationService:
    """Delivers broadcast-start notifications and models open behaviour.

    Parameters
    ----------
    open_rate:
        Baseline probability that a notified follower joins the broadcast.
    max_sampled_followers:
        For very large follower sets, joiners are sampled binomially rather
        than per-follower, keeping large-celebrity broadcasts cheap.
    """

    graph: CompiledGraph
    open_rate: float = 0.02
    max_sampled_followers: int = 10_000
    notifications_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.open_rate <= 1:
            raise ValueError(f"open_rate must be within [0, 1], got {self.open_rate}")

    def notify_followers(self, broadcaster: int) -> np.ndarray:
        """The IDs of the followers notified for a new broadcast, sorted."""
        followers = self.graph.followers_of(broadcaster)
        self.notifications_sent += len(followers)
        return followers

    def joining_followers(
        self,
        broadcaster: int,
        rng: np.random.Generator,
    ) -> list[int]:
        """Followers who open the notification and join the broadcast."""
        # In ID order, so the draws below do not depend on how the graph was built.
        follower_list = self.notify_followers(broadcaster).tolist()
        if not follower_list:
            return []
        if len(follower_list) <= self.max_sampled_followers:
            mask = rng.random(len(follower_list)) < self.open_rate
            return [f for f, joined in zip(follower_list, mask) if joined]
        # Binomial shortcut for celebrity-scale fanouts.
        join_count = int(rng.binomial(len(follower_list), self.open_rate))
        join_count = min(join_count, len(follower_list))
        chosen = rng.choice(len(follower_list), size=join_count, replace=False)
        return [follower_list[i] for i in sorted(chosen)]

    def expected_notified_joiners(self, broadcaster: int) -> float:
        """Expected follower joins (used by analytic audience models)."""
        return self.graph.follower_count(broadcaster) * self.open_rate
