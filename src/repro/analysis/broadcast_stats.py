"""Broadcast-level statistics: Table 1 and Figures 3–6."""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import Cdf
from repro.crawler.dataset import BroadcastDataset, creation_tallies, view_tallies


def table1_rows(datasets: list[BroadcastDataset]) -> dict[str, dict[str, int]]:
    """Table 1: one row of dataset statistics per application."""
    return {dataset.app_name: dataset.table1_row() for dataset in datasets}


def broadcast_length_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 3: CDF of broadcast length (seconds)."""
    return Cdf(dataset.columns.duration_s)


def viewers_per_broadcast_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 4: CDF of total viewers per broadcast."""
    return Cdf(dataset.columns.total_views)


def comments_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 5 (comments series)."""
    return Cdf(dataset.columns.comment_count)


def hearts_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 5 (hearts series)."""
    return Cdf(dataset.columns.heart_count)


def views_per_user_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 6: broadcasts viewed per (active) user."""
    _, counts = view_tallies(dataset)
    if not len(counts):
        raise ValueError("dataset has no views")
    return Cdf(counts)


def creations_per_user_cdf(dataset: BroadcastDataset) -> Cdf:
    """Figure 6: broadcasts created per (active) broadcaster."""
    _, counts = creation_tallies(dataset)
    if not len(counts):
        raise ValueError("dataset has no broadcasts")
    return Cdf(counts)


def viewer_activity_skew(views: Cdf, top_fraction: float = 0.15) -> float:
    """How many times the median user's viewing the top watchers average,
    over the per-user view counts ``views`` (:func:`views_per_user_cdf`).

    The paper: "the most active 15% of users watch 10x more broadcasts
    than the median user."
    """
    if not 0 < top_fraction < 1:
        raise ValueError("top_fraction must be in (0, 1)")
    counts = views.values
    median = float(np.median(counts))
    top_count = max(1, int(len(counts) * top_fraction))
    top_mean = float(np.mean(counts[-top_count:]))
    if median == 0:
        raise ValueError("median viewer watched nothing")
    return top_mean / median


def hls_broadcast_fraction(dataset: BroadcastDataset, rtmp_threshold: int = 100) -> float:
    """§4.1's spillover statistic: the fraction of broadcasts with at
    least one HLS viewer, i.e. more than ``rtmp_threshold`` viewers, the
    audience the RTMP tier serves (paper: 5.77%)."""
    total = dataset.broadcast_count
    if total == 0:
        raise ValueError("empty dataset")
    return int(np.count_nonzero(dataset.columns.total_views > rtmp_threshold)) / total
