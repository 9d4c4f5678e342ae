"""Social-graph statistics: Table 2 and Figure 7."""

from __future__ import annotations

import numpy as np

from repro.crawler.dataset import BroadcastDataset
from repro.social.graph import CompiledGraph
from repro.social.metrics import TABLE2_REFERENCE, compute_graph_metrics


def table2_rows(
    graph: CompiledGraph,
    rng: np.random.Generator,
    clustering_sample: int = 1_000,
    path_sample: int = 50,
) -> dict[str, dict[str, float]]:
    """Table 2: our generated Periscope graph next to the reference rows."""
    metrics = compute_graph_metrics(graph, rng, clustering_sample, path_sample)
    rows = {"Periscope (generated)": metrics.as_row()}
    rows.update({name: dict(row) for name, row in TABLE2_REFERENCE.items()})
    return rows


def followers_vs_viewers(dataset: BroadcastDataset) -> tuple[np.ndarray, np.ndarray]:
    """Figure 7's scatter inputs: (followers, viewers) per broadcast."""
    columns = dataset.columns
    return columns.broadcaster_followers.astype(float), columns.total_views.astype(float)


def follower_viewer_correlation(dataset: BroadcastDataset) -> float:
    """Spearman-style rank correlation between followers and viewers.

    Rank correlation is appropriate for the heavy-tailed Figure 7 scatter;
    a clearly positive value reproduces the paper's finding that "users
    with more followers are more likely to generate highly popular
    broadcasts."
    """
    followers, viewers = followers_vs_viewers(dataset)
    if len(followers) < 3:
        raise ValueError("need at least 3 broadcasts")
    ranks_f = np.argsort(np.argsort(followers)).astype(float)
    ranks_v = np.argsort(np.argsort(viewers)).astype(float)
    if ranks_f.std() == 0 or ranks_v.std() == 0:
        return 0.0
    return float(np.corrcoef(ranks_f, ranks_v)[0, 1])


def mean_viewers_by_follower_bucket(
    dataset: BroadcastDataset,
    bucket_edges: tuple[float, ...] = (0, 1, 10, 100, 1_000, 10_000, float("inf")),
) -> dict[str, float]:
    """Binned version of Figure 7: mean viewers per follower-count bucket."""
    followers, viewers = followers_vs_viewers(dataset)
    result: dict[str, float] = {}
    for low, high in zip(bucket_edges[:-1], bucket_edges[1:]):
        mask = (followers >= low) & (followers < high)
        label = f"[{int(low)}, {'inf' if high == float('inf') else int(high)})"
        if mask.any():
            result[label] = float(viewers[mask].mean())
    return result
