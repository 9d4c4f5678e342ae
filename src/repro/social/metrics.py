"""Graph metrics for Table 2.

Computes the statistics the paper reports for the Periscope follow graph
and compares against its Facebook/Twitter reference rows: node and edge
counts, average (total) degree, average clustering coefficient, average
shortest-path length, and degree assortativity.

Clustering and path length are estimated on random node samples — exact
computation is quadratic and the paper's own numbers for 12M-node graphs
are necessarily sampled too.  Assortativity (Pearson correlation of total
degrees across directed edges, the convention the referenced
Twitter/Facebook studies use) is exact on small graphs and switches to a
seeded source-node sampling estimator above
:data:`ASSORTATIVITY_EXACT_MAX_NODES` nodes, where the all-edges scan
made scale >= 0.01 graphs intractable.

Every metric runs on the CSR arrays of a :class:`CompiledGraph`, so node
samples are drawn by sorted node ID.  Clustering and path length walk
the undirected CSR (:meth:`CompiledGraph.undirected_csr`) with array
gathers; their link and hop counts stay integers, so they reproduce the
per-node loop versions float for float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.social.graph import CompiledGraph


@dataclass(frozen=True)
class GraphMetrics:
    """The Table 2 row for one social graph."""

    nodes: int
    edges: int
    avg_degree: float
    clustering_coefficient: float
    avg_path_length: float
    assortativity: float

    def as_row(self) -> dict[str, float]:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "avg_degree": round(self.avg_degree, 2),
            "clustering_coef": round(self.clustering_coefficient, 3),
            "avg_path": round(self.avg_path_length, 2),
            "assortativity": round(self.assortativity, 3),
        }


#: Reference rows from Table 2 of the paper.
TABLE2_REFERENCE: dict[str, dict[str, float]] = {
    "Periscope": {
        "nodes": 12_000_000,
        "edges": 231_000_000,
        "avg_degree": 38.6,
        "clustering_coef": 0.130,
        "avg_path": 3.74,
        "assortativity": -0.057,
    },
    "Facebook": {
        "nodes": 1_220_000,
        "edges": 121_000_000,
        "avg_degree": 199.6,
        "clustering_coef": 0.175,
        "avg_path": 5.13,
        "assortativity": 0.17,
    },
    "Twitter": {
        "nodes": 1_620_000,
        "edges": 11_300_000,
        "avg_degree": 13.99,
        "clustering_coef": 0.065,
        "avg_path": 6.49,
        "assortativity": -0.19,
    },
}


#: Undirected degree above which a node is a hub: a link between two of a
#: node's neighbors is not counted when its lower-ID endpoint is a hub.
CLUSTERING_HUB_CUTOFF = 50_000

#: Hop limit of each BFS in the path-length estimator.
PATH_CUTOFF_HOPS = 50


def _degree_values(graph: CompiledGraph, kind: str) -> np.ndarray:
    """Per-node degrees of the requested ``kind`` ("in"/"out"/"total")."""
    if kind == "in":
        return graph.in_degrees()
    if kind == "out":
        return graph.out_degrees()
    if kind == "total":
        return graph.total_degrees()
    raise ValueError(f"unknown degree kind {kind!r}")


def _sample(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Indices of ``size`` distinct nodes out of ``n`` (all of them if ``n <= size``)."""
    if n <= size:
        return np.arange(n, dtype=np.int64)
    return rng.choice(n, size=size, replace=False)


def _row_offsets(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of CSR rows ``rows`` concatenated, and each row's length."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    before = np.cumsum(counts) - counts
    offsets = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(starts - before, counts)
    return offsets, counts


def _clustering_of(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Local clustering coefficient of each node index in ``nodes``.

    One ragged gather per node collects its neighbors' rows; a boolean
    mask over the node's own neighbors marks the links among them, each
    counted once from its lower-ID endpoint.
    """
    degrees = np.diff(indptr)
    cutoff = CLUSTERING_HUB_CUTOFF
    in_hood = np.zeros(len(degrees), dtype=bool)
    coefficients = np.zeros(len(nodes))
    for i, node in enumerate(nodes.tolist()):
        k = int(degrees[node])
        if k < 2:
            continue
        hood = indices[indptr[node] : indptr[node + 1]]
        in_hood[hood] = True
        # A hub's row is not gathered: links whose lower-ID end is a hub drop out.
        rows = hood[degrees[hood] <= cutoff]
        offsets, counts = _row_offsets(indptr, rows)
        ends = indices[offsets]
        links = np.count_nonzero(in_hood[ends] & (ends > np.repeat(rows, counts)))
        in_hood[hood] = False
        coefficients[i] = 2.0 * links / (k * (k - 1))
    return coefficients


def local_clustering(graph: CompiledGraph, node: int) -> float:
    """Undirected local clustering coefficient of ``node`` (0.0 if unknown)."""
    if node not in graph:
        return 0.0
    indptr, indices = graph.undirected_csr()
    index = np.searchsorted(graph.node_ids, [node])
    return float(_clustering_of(indptr, indices, index)[0])


def average_clustering(
    graph: CompiledGraph,
    rng: np.random.Generator,
    sample_size: int = 1_000,
) -> float:
    """Average local clustering over a random node sample."""
    if graph.node_count == 0:
        return 0.0
    sample = _sample(graph.node_count, rng, sample_size)
    indptr, indices = graph.undirected_csr()
    return float(np.mean(_clustering_of(indptr, indices, sample)))


def average_path_length(
    graph: CompiledGraph,
    rng: np.random.Generator,
    sample_size: int = 50,
) -> float:
    """Mean shortest-path length estimated from BFS on sampled sources.

    Paths are measured on the undirected version of the graph (the
    convention of the studies Table 2 cites), up to
    :data:`PATH_CUTOFF_HOPS` hops.  Unreachable pairs are excluded.  Each
    BFS is level-synchronous: one ragged gather expands the whole
    frontier, and a node mask drops duplicates and visited nodes.
    """
    n = graph.node_count
    if n < 2:
        return 0.0
    sources = _sample(n, rng, sample_size)
    indptr, indices = graph.undirected_csr()
    total = 0
    count = 0
    for source in sources.tolist():
        visited = np.zeros(n, dtype=bool)
        visited[source] = True
        frontier = np.array([source], dtype=np.int64)
        for depth in range(1, PATH_CUTOFF_HOPS + 1):
            reached = np.zeros(n, dtype=bool)
            reached[indices[_row_offsets(indptr, frontier)[0]]] = True
            reached &= ~visited
            frontier = np.flatnonzero(reached)
            if len(frontier) == 0:
                break
            visited |= reached
            total += depth * len(frontier)
            count += len(frontier)
    return total / count if count else 0.0


#: Above this many nodes the exact all-edges assortativity scan becomes
#: the bottleneck of Table 2 at scale >= 0.01; the estimator samples
#: source nodes instead.
ASSORTATIVITY_EXACT_MAX_NODES = 50_000

#: Source nodes drawn by the sampling estimator — every out-edge of a
#: sampled source enters the correlation, so the effective edge sample is
#: ~``mean_out_degree`` times larger.
ASSORTATIVITY_SOURCE_SAMPLE = 20_000


def _assortativity_of_arrays(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two degree arrays (0.0 when degenerate)."""
    if len(x) < 2:
        return 0.0
    x = x.astype(float)
    y = y.astype(float)
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def degree_assortativity(
    graph: CompiledGraph,
    rng: np.random.Generator | None = None,
    max_exact_nodes: int = ASSORTATIVITY_EXACT_MAX_NODES,
    source_sample: int = ASSORTATIVITY_SOURCE_SAMPLE,
) -> float:
    """Pearson correlation of total degree across directed edges.

    Exact over all edges up to ``max_exact_nodes`` nodes.  Above that
    (and when a seeded ``rng`` is provided) it estimates from the
    out-edges of a uniform source-node sample — every edge has the same
    inclusion probability, so the estimator is unbiased, and the seeded
    rng keeps it deterministic.  Pass ``rng=None`` to force the exact
    path at any size.  Either way it runs over the CSR arrays, with no
    per-edge Python loop.
    """
    degrees = graph.total_degrees()
    if rng is None or graph.node_count <= max_exact_nodes:
        src_idx = np.repeat(
            np.arange(graph.node_count, dtype=np.int64), graph.out_degrees()
        )
        return _assortativity_of_arrays(degrees[src_idx], degrees[graph.indices])
    sample_size = min(source_sample, graph.node_count)
    sources = rng.choice(
        np.arange(graph.node_count, dtype=np.int64), size=sample_size, replace=False
    )
    offsets, counts = _row_offsets(graph.indptr, sources)
    src_idx = np.repeat(sources, counts)
    return _assortativity_of_arrays(degrees[src_idx], degrees[graph.indices[offsets]])


def compute_graph_metrics(
    graph: CompiledGraph,
    rng: np.random.Generator,
    clustering_sample: int = 1_000,
    path_sample: int = 50,
) -> GraphMetrics:
    """All Table 2 metrics for ``graph``."""
    nodes = graph.node_count
    edges = graph.edge_count
    avg_degree = 2.0 * edges / nodes if nodes else 0.0
    return GraphMetrics(
        nodes=nodes,
        edges=edges,
        avg_degree=avg_degree,
        clustering_coefficient=average_clustering(graph, rng, clustering_sample),
        avg_path_length=average_path_length(graph, rng, path_sample),
        assortativity=degree_assortativity(graph, rng),
    )


def degree_ccdf(
    graph: CompiledGraph, kind: str = "in"
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF of node degree (Figure 7's x-axis spans decades).

    Returns ``(degrees, P(D >= degree))`` over the distinct degree values,
    for ``kind`` in {"in", "out", "total"}.
    """
    values = _degree_values(graph, kind)
    if len(values) == 0:
        raise ValueError("empty graph")
    values = np.sort(values)
    distinct = np.unique(values)
    ccdf = 1.0 - np.searchsorted(values, distinct, side="left") / len(values)
    return distinct, ccdf


def estimate_powerlaw_alpha(
    graph: CompiledGraph, kind: str = "in", x_min: int = 5
) -> float:
    """Discrete MLE power-law exponent of the degree tail.

    Uses the standard continuous approximation
    ``alpha = 1 + n / sum(ln(d / (x_min - 0.5)))`` over degrees >= x_min.
    Heavy-tailed follow graphs land around alpha ~ 2-3.
    """
    if x_min < 2:
        raise ValueError("x_min must be at least 2")
    values = _degree_values(graph, kind)
    tail = values[values >= x_min].astype(float)
    if len(tail) < 10:
        raise ValueError("tail too small to fit")
    return float(1.0 + len(tail) / np.sum(np.log(tail / (x_min - 0.5))))
