"""Tests for follow-graph generation and Table 2 metrics."""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.social import metrics as social_metrics
from repro.social.generation import SEED_NODES, FollowGraphConfig, generate_follow_graph
from repro.social.graph import CompiledGraph
from repro.social.metrics import (
    PATH_CUTOFF_HOPS,
    TABLE2_REFERENCE,
    average_clustering,
    average_path_length,
    compute_graph_metrics,
    degree_assortativity,
    local_clustering,
)
from repro.social.notifications import NotificationService
from repro.workload.trace import TraceConfig, build_follow_graph


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGeneration:
    def test_node_count(self, rng):
        graph = generate_follow_graph(FollowGraphConfig(n_nodes=500), rng)
        assert isinstance(graph, CompiledGraph)
        assert graph.node_count == 500

    def test_mean_degree_near_target(self, rng):
        config = FollowGraphConfig(n_nodes=2000, mean_out_degree=10.0)
        graph = generate_follow_graph(config, rng)
        avg_total_degree = 2.0 * graph.edge_count / graph.node_count
        assert avg_total_degree == pytest.approx(20.0, rel=0.35)

    def test_heavy_tailed_in_degree(self, rng):
        graph = generate_follow_graph(FollowGraphConfig(n_nodes=2000), rng)
        in_degrees = sorted(graph.follower_count(n) for n in graph.nodes())
        median = in_degrees[len(in_degrees) // 2]
        assert in_degrees[-1] > 10 * max(median, 1)  # celebrities exist

    def test_deterministic_for_same_seed(self):
        config = FollowGraphConfig(n_nodes=300)
        a = generate_follow_graph(config, np.random.default_rng(5))
        b = generate_follow_graph(config, np.random.default_rng(5))
        assert set(a.edges()) == set(b.edges())

    def test_no_self_loops(self, rng):
        graph = generate_follow_graph(FollowGraphConfig(n_nodes=400), rng)
        assert all(u != v for u, v in graph.edges())

    # Edge counts for fixed (config, seed) pairs.  These pin the triadic
    # closure step to snapshot semantics: closures in a chunk pick "via"
    # and target nodes from the adjacency frozen *before* the chunk, never
    # from edges added inside it.  A rewrite that lets the hot loop read
    # its own writes shifts the closure targets and changes these counts.
    EDGE_COUNT_PINS = [(500, 7, 6766), (2000, 11, 37189)]

    @pytest.mark.parametrize("n_nodes,seed,expected_edges", EDGE_COUNT_PINS)
    def test_edge_counts_pinned_for_fixed_seed(self, n_nodes, seed, expected_edges):
        config = FollowGraphConfig(n_nodes=n_nodes)
        graph = generate_follow_graph(config, np.random.default_rng(seed))
        assert graph.edge_count == expected_edges

    # SHA-256 of the trace graph's packed edge keys (little-endian int64,
    # in generation order).  The triadic draws read the reciprocated CSR
    # the generator keeps merged chunk by chunk, so a merge that drifts
    # from the stable by-source order of every reciprocated edge moves
    # these digests.
    EDGE_KEY_PINS = [
        (0.0005, 2016, "b94d77311fcb41eaedaf900c6242960110d9b0694a22a5eb1d3e59b465c8af9b"),
        (0.002, 7, "8dec8123e15526c33d41a809548f8c9a66737104f2d36ab7c71e164e74ca29af"),
    ]

    @pytest.mark.parametrize("scale,seed,expected", EDGE_KEY_PINS)
    def test_trace_edge_keys_pinned(self, scale, seed, expected):
        keys = build_follow_graph(TraceConfig.periscope(scale=scale, seed=seed))
        assert hashlib.sha256(keys.astype("<i8").tobytes()).hexdigest() == expected

    def test_config_validation(self, rng):
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=1)
        with pytest.raises(ValueError):
            FollowGraphConfig(n_nodes=SEED_NODES - 1)  # smaller than the seed clique
        clique = generate_follow_graph(FollowGraphConfig(n_nodes=SEED_NODES), rng)
        assert clique.edge_count == SEED_NODES * (SEED_NODES - 1)

    def test_table2_shape_holds(self, rng):
        """The generated graph shows the paper's structural signature."""
        graph = generate_follow_graph(FollowGraphConfig(n_nodes=3000), rng)
        metrics = compute_graph_metrics(graph, rng, clustering_sample=300, path_sample=20)
        assert metrics.assortativity < 0.05  # Twitter-like, not Facebook-like
        assert 0.02 < metrics.clustering_coefficient < 0.4
        assert 2.0 < metrics.avg_path_length < 6.0


class TestMetrics:
    def test_local_clustering_triangle(self):
        graph = CompiledGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        assert local_clustering(graph, 1) == pytest.approx(1.0)

    def test_local_clustering_star_is_zero(self):
        graph = CompiledGraph.from_edges([(1, 2), (1, 3), (1, 4)])
        assert local_clustering(graph, 1) == 0.0

    def test_local_clustering_degree_one(self):
        graph = CompiledGraph.from_edges([(1, 2)])
        assert local_clustering(graph, 1) == 0.0

    def test_average_clustering_bounds(self, rng):
        graph = CompiledGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        value = average_clustering(graph, rng)
        assert 0.0 <= value <= 1.0

    def test_path_length_on_chain(self, rng):
        graph = CompiledGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        # Undirected chain of 4: mean pairwise distance = 20/12.
        assert average_path_length(graph, rng, sample_size=4) == pytest.approx(20 / 12)

    def test_assortativity_negative_for_star(self):
        """A star graph is maximally disassortative."""
        edges = [(0, hub) for hub in [99]] + [(i, 99) for i in range(1, 30)]
        graph = CompiledGraph.from_edges(edges)
        assert degree_assortativity(graph) <= 0.0

    def test_assortativity_zero_on_tiny_graph(self):
        graph = CompiledGraph.from_edges([(1, 2)])
        assert degree_assortativity(graph) == 0.0

    def test_compute_graph_metrics_row(self, rng, small_graph):
        metrics = compute_graph_metrics(small_graph, rng, clustering_sample=100, path_sample=10)
        row = metrics.as_row()
        assert row["nodes"] == small_graph.node_count
        assert row["edges"] == small_graph.edge_count
        assert row["avg_degree"] == pytest.approx(
            2 * small_graph.edge_count / small_graph.node_count, abs=0.01
        )

    def test_reference_rows_match_paper(self):
        periscope = TABLE2_REFERENCE["Periscope"]
        assert periscope["avg_degree"] == 38.6
        assert periscope["assortativity"] == -0.057
        assert TABLE2_REFERENCE["Facebook"]["assortativity"] > 0
        assert TABLE2_REFERENCE["Twitter"]["assortativity"] < 0


class TestSampledAssortativity:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_follow_graph(
            FollowGraphConfig(n_nodes=800), np.random.default_rng(31)
        )

    def test_full_source_sample_equals_exact(self, graph, rng):
        # Sampling every source node covers every edge, so the estimator
        # must reproduce the exact correlation (edge order is irrelevant
        # to Pearson r).
        exact = degree_assortativity(graph)
        sampled = degree_assortativity(
            graph, rng, max_exact_nodes=0, source_sample=graph.node_count
        )
        assert sampled == pytest.approx(exact, abs=1e-9)

    def test_partial_sample_close_to_exact(self, graph):
        exact = degree_assortativity(graph)
        sampled = degree_assortativity(
            graph,
            np.random.default_rng(5),
            max_exact_nodes=0,
            source_sample=400,
        )
        assert sampled == pytest.approx(exact, abs=0.1)

    def test_sampling_is_deterministic_for_a_seed(self, graph):
        a = degree_assortativity(
            graph, np.random.default_rng(12), max_exact_nodes=0, source_sample=200
        )
        b = degree_assortativity(
            graph, np.random.default_rng(12), max_exact_nodes=0, source_sample=200
        )
        assert a == b

    def test_small_graph_stays_exact_even_with_rng(self, graph, rng):
        # Below the node threshold the rng must not be consulted.
        before = rng.bit_generator.state
        value = degree_assortativity(graph, rng)
        assert rng.bit_generator.state == before
        assert value == degree_assortativity(graph)


class TestClusteringHubGuard:
    def test_huge_hub_neighbors_are_skipped(self, monkeypatch):
        # The guard used to be a no-op `continue` at the end of the loop
        # body; with a cutoff of 0 every neighbor counts as a hub and the
        # coefficient must collapse to zero.
        edges = [(1, 2), (2, 3), (3, 1)]  # a triangle: clustering 1.0
        graph = CompiledGraph.from_edges(edges)
        assert local_clustering(graph, 1) == 1.0
        monkeypatch.setattr(social_metrics, "CLUSTERING_HUB_CUTOFF", 0)
        assert local_clustering(graph, 1) == 0.0


# -- loop oracles for the CSR kernels ---------------------------------------
#
# Dict-of-sets versions of the Table 2 estimators, walking neighbors in
# sorted ID order.  They draw the same node samples as the kernels (by
# sorted ID), so the kernels must reproduce them exactly, float for float.


def _oracle_adjacency(graph) -> dict[int, list[int]]:
    """Undirected neighbor lists, sorted, from the graph's edge list."""
    adjacency: dict[int, set[int]] = {int(node): set() for node in graph.nodes()}
    for follower, followee in graph.edges():
        adjacency[follower].add(followee)
        adjacency[followee].add(follower)
    return {node: sorted(neighbors) for node, neighbors in adjacency.items()}


def _oracle_sample(adjacency, rng, size: int) -> list[int]:
    nodes = np.array(sorted(adjacency), dtype=np.int64)
    if len(nodes) <= size:
        return nodes.tolist()
    return rng.choice(nodes, size=size, replace=False).tolist()


def oracle_local_clustering(adjacency, node: int, hub_cutoff: int) -> float:
    neighbors = adjacency.get(node, [])
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    for i, u in enumerate(neighbors):
        u_neighbors = set(adjacency[u])
        if len(u_neighbors) > hub_cutoff:
            continue
        for v in neighbors[i + 1 :]:
            if v in u_neighbors:
                links += 1
    return 2.0 * links / (k * (k - 1))


def oracle_average_clustering(graph, rng, sample_size: int, hub_cutoff: int) -> float:
    adjacency = _oracle_adjacency(graph)
    if not adjacency:
        return 0.0
    sample = _oracle_sample(adjacency, rng, sample_size)
    return float(
        np.mean([oracle_local_clustering(adjacency, node, hub_cutoff) for node in sample])
    )


def oracle_bfs_distances(adjacency, source: int, cutoff: int) -> dict[int, int]:
    distances = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distances[node]
        if depth >= cutoff:
            continue
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                frontier.append(neighbor)
    return distances


def oracle_average_path_length(graph, rng, sample_size: int, cutoff: int) -> float:
    adjacency = _oracle_adjacency(graph)
    if len(adjacency) < 2:
        return 0.0
    total = 0
    count = 0
    for source in _oracle_sample(adjacency, rng, sample_size):
        for node, distance in oracle_bfs_distances(adjacency, source, cutoff).items():
            if node != source:
                total += distance
                count += 1
    return total / count if count else 0.0


def _assert_kernels_match_oracle(graph, seed: int, clustering_sample: int, path_sample: int):
    hub_cutoff = social_metrics.CLUSTERING_HUB_CUTOFF
    assert average_clustering(
        graph, np.random.default_rng(seed), clustering_sample
    ) == oracle_average_clustering(
        graph, np.random.default_rng(seed), clustering_sample, hub_cutoff
    )
    assert average_path_length(
        graph, np.random.default_rng(seed), path_sample
    ) == oracle_average_path_length(
        graph, np.random.default_rng(seed), path_sample, PATH_CUTOFF_HOPS
    )


def _two_components_with_isolates() -> CompiledGraph:
    return CompiledGraph.from_edges(
        [(10, 11), (11, 12), (12, 10), (12, 13), (13, 14), (14, 12), (15, 14)]
        + [(40, 41), (41, 40), (41, 42), (43, 42), (43, 40)],
        nodes=(5, 30, 99),
    )


class TestTable2KernelsMatchOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_graphs(self, seed):
        config = FollowGraphConfig(n_nodes=400, mean_out_degree=6.0)
        graph = generate_follow_graph(config, np.random.default_rng(seed))
        _assert_kernels_match_oracle(graph, seed, clustering_sample=150, path_sample=8)

    def test_whole_graph_when_samples_cover_it(self):
        graph = generate_follow_graph(
            FollowGraphConfig(n_nodes=120, mean_out_degree=4.0), np.random.default_rng(9)
        )
        _assert_kernels_match_oracle(graph, 9, clustering_sample=500, path_sample=500)

    def test_non_contiguous_node_ids(self):
        base = generate_follow_graph(
            FollowGraphConfig(n_nodes=200, mean_out_degree=5.0), np.random.default_rng(4)
        )
        graph = CompiledGraph.from_edges(
            ((7 * u + 1_000, 7 * v + 1_000) for u, v in base.edges()),
            nodes=[3],  # an isolated node below every other ID
        )
        assert not (graph.node_ids == np.arange(graph.node_count)).all()
        _assert_kernels_match_oracle(graph, 4, clustering_sample=80, path_sample=12)

    def test_isolated_nodes_and_two_components(self):
        graph = _two_components_with_isolates()
        _assert_kernels_match_oracle(graph, 0, clustering_sample=1_000, path_sample=50)
        _assert_kernels_match_oracle(graph, 5, clustering_sample=6, path_sample=4)
        for node in (5, 12, 41):
            assert local_clustering(graph, node) == oracle_local_clustering(
                _oracle_adjacency(graph), node, social_metrics.CLUSTERING_HUB_CUTOFF
            )

    def test_chain_beyond_the_hop_cutoff(self, rng):
        graph = CompiledGraph.from_edges((i, i + 1) for i in range(59))
        capped = average_path_length(graph, rng, sample_size=60)
        assert capped == oracle_average_path_length(
            graph, rng, sample_size=60, cutoff=PATH_CUTOFF_HOPS
        )
        # The cutoff bites: uncapped, a 60-chain averages (60 + 1) / 3 hops.
        assert capped < oracle_average_path_length(graph, rng, sample_size=60, cutoff=60)

    def test_local_clustering_of_unknown_node(self):
        graph = CompiledGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        assert local_clustering(graph, 99) == 0.0
        assert local_clustering(graph, -5) == 0.0

    def test_hub_cutoff_skips_links_by_lower_id_endpoint(self, monkeypatch):
        # Node 0 sees neighbors 1..5 with links 1-2, 1-3, 2-3, 3-4, 4-5.
        # Undirected degrees: 1 -> 3, 2 -> 3, 3 -> 4, 4 -> 3, 5 -> 2.
        graph = CompiledGraph.from_edges(
            [(0, n) for n in range(1, 6)] + [(1, 2), (3, 1), (2, 3), (4, 3), (4, 5)]
        )
        assert local_clustering(graph, 0) == pytest.approx(5 / 10)
        monkeypatch.setattr(social_metrics, "CLUSTERING_HUB_CUTOFF", 3)
        # Node 3 (degree 4) is now a hub: its link 3-4 is skipped, but 1-3
        # and 2-3 still count, since their lower-ID endpoints are not hubs.
        assert local_clustering(graph, 0) == pytest.approx(4 / 10)
        adjacency = _oracle_adjacency(graph)
        for node in range(6):
            assert local_clustering(graph, node) == oracle_local_clustering(adjacency, node, 3)

    @pytest.mark.parametrize("cutoff", [8, 15])
    def test_hub_cutoff_on_a_generated_graph(self, monkeypatch, cutoff):
        graph = generate_follow_graph(
            FollowGraphConfig(n_nodes=300, mean_out_degree=6.0), np.random.default_rng(8)
        )
        degrees = [len(neighbors) for neighbors in _oracle_adjacency(graph).values()]
        assert min(degrees) <= cutoff < max(degrees)
        monkeypatch.setattr(social_metrics, "CLUSTERING_HUB_CUTOFF", cutoff)
        _assert_kernels_match_oracle(graph, 8, clustering_sample=300, path_sample=2)
        # The cutoff bites: some links are skipped at this cutoff.
        assert average_clustering(graph, np.random.default_rng(8), 300) < (
            oracle_average_clustering(graph, np.random.default_rng(8), 300, hub_cutoff=10**9)
        )


class TestTable2Pin:
    def test_default_graph_row_is_pinned(self):
        """The seed-2016 Table 2 graph at the default scale, float for float."""
        config = TraceConfig.periscope(scale=0.0005, seed=2016)
        graph = CompiledGraph.from_packed_keys(build_follow_graph(config), config.total_users)
        metrics = compute_graph_metrics(graph, np.random.default_rng(2016))
        assert metrics.nodes == 6_000
        assert metrics.clustering_coefficient == 0.13964917757524622
        assert metrics.avg_path_length == 2.581213535589265
        assert metrics.assortativity == -0.045151467931847496


class TestNotifications:
    def test_notifies_all_followers(self, small_graph):
        service = NotificationService(graph=small_graph)
        broadcaster = next(iter(small_graph.nodes()))
        notified = service.notify_followers(broadcaster)
        assert notified.tolist() == small_graph.followers_of(broadcaster).tolist()
        assert service.notifications_sent == len(notified)

    def test_joining_followers_subset(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=0.5)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        joiners = service.joining_followers(broadcaster, rng)
        assert set(joiners) <= set(small_graph.followers_of(broadcaster).tolist())

    def test_zero_open_rate_joins_nobody(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=0.0)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        assert service.joining_followers(broadcaster, rng) == []

    def test_full_open_rate_joins_everyone(self, small_graph, rng):
        service = NotificationService(graph=small_graph, open_rate=1.0)
        broadcaster = max(small_graph.nodes(), key=small_graph.follower_count)
        joiners = service.joining_followers(broadcaster, rng)
        assert joiners == small_graph.followers_of(broadcaster).tolist()

    def test_binomial_shortcut_for_large_fanouts(self, rng):
        graph = CompiledGraph.from_edges((i, 0) for i in range(1, 500))
        service = NotificationService(graph=graph, open_rate=0.1, max_sampled_followers=100)
        joiners = service.joining_followers(0, rng)
        assert 10 <= len(joiners) <= 120  # ~50 expected
        assert len(set(joiners)) == len(joiners)

    def test_invalid_open_rate_rejected(self, small_graph):
        with pytest.raises(ValueError):
            NotificationService(graph=small_graph, open_rate=1.5)

    def test_expected_joiners(self, small_graph):
        service = NotificationService(graph=small_graph, open_rate=0.1)
        broadcaster = next(iter(small_graph.nodes()))
        expected = service.expected_notified_joiners(broadcaster)
        assert expected == pytest.approx(
            small_graph.follower_count(broadcaster) * 0.1
        )


class TestDegreeDistribution:
    def test_ccdf_monotone_decreasing(self, rng):
        from repro.social.metrics import degree_ccdf

        graph = generate_follow_graph(FollowGraphConfig(n_nodes=1000), rng)
        degrees, ccdf = degree_ccdf(graph, kind="in")
        assert list(degrees) == sorted(degrees)
        assert all(b <= a for a, b in zip(ccdf, ccdf[1:]))
        assert ccdf[0] <= 1.0
        assert ccdf[-1] > 0.0

    def test_ccdf_kinds(self, rng, small_graph):
        from repro.social.metrics import degree_ccdf

        for kind in ("in", "out", "total"):
            degrees, ccdf = degree_ccdf(small_graph, kind=kind)
            assert len(degrees) == len(ccdf)
        with pytest.raises(ValueError):
            degree_ccdf(small_graph, kind="sideways")

    def test_powerlaw_alpha_in_plausible_range(self, rng):
        from repro.social.metrics import estimate_powerlaw_alpha

        graph = generate_follow_graph(FollowGraphConfig(n_nodes=3000), rng)
        alpha = estimate_powerlaw_alpha(graph, kind="in", x_min=5)
        assert 1.3 < alpha < 4.0  # heavy-tailed, social-graph-like

    def test_powerlaw_validation(self, rng, small_graph):
        from repro.social.metrics import estimate_powerlaw_alpha

        with pytest.raises(ValueError):
            estimate_powerlaw_alpha(small_graph, x_min=1)
