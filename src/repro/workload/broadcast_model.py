"""Per-broadcast parameter sampling.

Calibrated to §3.2:

* Durations are lognormal with 85% of broadcasts under 10 minutes
  (Figure 3); Meerkat's distribution is more skewed (heavier tail from a
  smaller number of long broadcasts).
* Audience sizes are a lognormal body with a rare "viral" Pareto tail up
  to ~100K viewers (Figure 4); for Meerkat, ~60% of broadcasts get zero
  viewers.
* Engagement: hearts are cheap (a viewer can tap continuously — the top
  broadcast collected 1.35M hearts), comments are throttled by the
  100-commenter cap; ~10% of Periscope broadcasts exceed 100 comments and
  1000 hearts (Figure 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.simulation.distributions import bounded_pareto, lognormal_from_median


@dataclass
class BroadcastParamsModel:
    """Samples per-broadcast parameters for one application profile.

    Every sampler draws a whole batch in a fixed sequence of vectorized
    rng calls, so the draw schedule is a pure function of the batch size
    — the property the per-day substreams rely on for schedule-independent
    output.
    """

    # Duration: 85% under 600 s.  Periscope sigma 1.0 -> median ~213 s;
    # Meerkat sigma 1.5 (more skewed) -> median ~127 s.
    duration_median_s: float = 213.0
    duration_sigma: float = 1.0
    max_duration_s: float = 24 * 3600.0
    min_duration_s: float = 5.0

    # Audience: lognormal body + rare viral Pareto tail.
    zero_viewer_prob: float = 0.01  # Meerkat: 0.60
    audience_median: float = 8.0
    audience_sigma: float = 1.6
    viral_prob: float = 0.0015
    viral_alpha: float = 0.7
    viral_min: float = 1_000.0
    audience_cap: int = 100_000

    # Web (anonymous) views: 223M of 705M total views in the paper.
    web_view_fraction: float = 0.316

    # Engagement.
    hearts_per_view_median: float = 8.0
    hearts_per_view_sigma: float = 1.2
    comment_prob_per_viewer: float = 0.45
    comments_per_commenter_mean: float = 2.5
    comment_cap: int = 100

    def sample_durations(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` durations in one vectorized draw."""
        raw = lognormal_from_median(
            rng, self.duration_median_s, self.duration_sigma, size=size
        )
        return np.clip(raw, self.min_duration_s, self.max_duration_s)

    def sample_audiences(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` audience sizes; draws body and viral tail as batches.

        The zero/viral/body draws happen for every broadcast and masks
        select afterwards, so the draw count is fixed.
        """
        zero_roll = rng.random(size)
        # The viral tail only exists when the cap leaves room above its
        # floor (tiny-scale runs clamp the cap below viral_min).
        viral_possible = self.audience_cap > self.viral_min
        if viral_possible:
            viral_roll = rng.random(size)
            viral_sizes = bounded_pareto(
                rng, self.viral_alpha, self.viral_min, float(self.audience_cap), size=size
            )
        sizes = np.asarray(
            lognormal_from_median(rng, self.audience_median, self.audience_sigma, size=size)
        )
        if viral_possible:
            sizes = np.where(viral_roll < self.viral_prob, viral_sizes, sizes)
        audience = np.clip(np.rint(sizes), 1, self.audience_cap).astype(np.int64)
        audience[zero_roll < self.zero_viewer_prob] = 0
        return audience

    def sample_engagements(
        self,
        rng: np.random.Generator,
        audience: np.ndarray,
        mobile_views: np.ndarray,
        excitement: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched ``(hearts, comments, commenters)`` arrays."""
        hearts_per_view = np.asarray(
            lognormal_from_median(
                rng,
                self.hearts_per_view_median * excitement,
                self.hearts_per_view_sigma,
                size=len(audience),
            )
        )
        heart_count = rng.poisson(audience * hearts_per_view)
        eligible = np.minimum(mobile_views, self.comment_cap)
        commenters = rng.binomial(
            eligible, np.minimum(1.0, self.comment_prob_per_viewer * excitement)
        )
        # rng.poisson(0) is 0, so zero-commenter rows get zero comments.
        comment_count = commenters + rng.poisson(
            commenters * self.comments_per_commenter_mean * excitement
        )
        return (
            heart_count.astype(np.int64),
            comment_count.astype(np.int64),
            commenters.astype(np.int64),
        )

    @classmethod
    def for_periscope(cls, audience_cap: int = 100_000) -> "BroadcastParamsModel":
        return cls(audience_cap=audience_cap)

    @classmethod
    def for_meerkat(cls, audience_cap: int = 10_000) -> "BroadcastParamsModel":
        """Meerkat: 60% zero-viewer broadcasts, more skewed durations."""
        return cls(
            duration_median_s=127.0,
            duration_sigma=1.5,
            zero_viewer_prob=0.60,
            audience_median=12.0,
            audience_sigma=1.8,
            viral_prob=0.0008,
            viral_min=500.0,
            audience_cap=audience_cap,
            web_view_fraction=0.18,
            hearts_per_view_median=2.0,
            comment_prob_per_viewer=0.20,
            comment_cap=1_000_000,
        )

    def expected_duration_quantile(self, duration_s: float) -> float:
        """Analytic CDF of the (untruncated) duration lognormal."""
        if duration_s <= 0:
            return 0.0
        z = math.log(duration_s / self.duration_median_s) / self.duration_sigma
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
