"""Figure 7: broadcaster's followers vs viewers per broadcast."""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.analysis.social_stats import (
    follower_viewer_correlation,
    mean_viewers_by_follower_bucket,
)
from repro.experiments.context import DEFAULT_SCALE, DEFAULT_SEED, periscope_trace
from repro.experiments.registry import experiment


@experiment(
    "fig7",
    "Figure 7: broadcaster's followers vs # of viewers (Periscope)",
    "Users with more followers generate more popular broadcasts (follower "
    "notifications create built-in audiences).",
)
def run(scale: float = DEFAULT_SCALE, seed: int = DEFAULT_SEED) -> tuple[dict, str]:
    dataset = periscope_trace(scale, seed).dataset
    correlation = follower_viewer_correlation(dataset)
    buckets = mean_viewers_by_follower_bucket(dataset)

    data = {"rank_correlation": correlation, "mean_viewers_by_bucket": buckets}
    rows = {bucket: {"mean_viewers": value} for bucket, value in buckets.items()}
    text = "\n".join(
        [
            format_table(
                rows,
                title="Figure 7 — mean viewers by broadcaster follower count",
                row_header="followers",
            ),
            f"Follower-viewer rank correlation: {correlation:.3f} (paper: clearly positive)",
        ]
    )
    return data, text
