"""Tests for the follow graph structure (:class:`CompiledGraph`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.graph import CompiledGraph

#: Follow edge lists over a small ID range, so repeats and reciprocation occur.
edge_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda e: e[0] != e[1]),
    max_size=80,
)


class TestFollowGraph:
    def test_add_follow_creates_nodes(self):
        graph = CompiledGraph.from_edges([(1, 2)])
        assert 1 in graph
        assert 2 in graph
        assert graph.node_count == 2

    def test_isolated_nodes_join_the_node_set(self):
        graph = CompiledGraph.from_edges([(5, 7)], nodes=[1, 7])
        assert graph.node_ids.tolist() == [1, 5, 7]
        assert graph.degree(1) == 0

    def test_follow_is_directional(self):
        graph = CompiledGraph.from_edges([(1, 2)])
        assert graph.follows(1, 2)
        assert not graph.follows(2, 1)

    def test_duplicate_follow_returns_false(self):
        """A repeated follow pair adds no second edge."""
        graph = CompiledGraph.from_edges([(1, 2), (1, 2)])
        assert graph.edge_count == 1

    def test_self_follow_rejected(self):
        with pytest.raises(ValueError, match="self-follow"):
            CompiledGraph.from_edges([(1, 2), (1, 1)])

    def test_too_many_nodes_rejected(self):
        # A zero-stride view stands in for a 2**31 + 1 node-ID array.
        node_ids = np.broadcast_to(np.int64(0), (2**31 + 1,))
        with pytest.raises(ValueError, match="2\\*\\*31"):
            CompiledGraph.from_edge_arrays([], [], node_ids=node_ids)

    def test_followers_and_followees(self):
        graph = CompiledGraph.from_edges([(1, 3), (2, 3), (3, 4)])
        assert graph.followers_of(3).tolist() == [1, 2]
        assert graph.followees_of(3).tolist() == [4]
        assert graph.follower_count(3) == 2
        assert graph.followee_count(3) == 1

    def test_degree_counts_both_directions(self):
        graph = CompiledGraph.from_edges([(1, 2), (3, 2), (2, 4)])
        assert graph.degree(2) == 3

    def test_edges_iteration(self):
        graph = CompiledGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        assert set(graph.edges()) == {(1, 2), (2, 3), (3, 1)}

    def test_undirected_csr_of_compiled_graph(self):
        # 1 <-> 2 is reciprocated: one undirected link, listed once per end.
        compiled = CompiledGraph.from_edges([(1, 2), (2, 1), (3, 1), (3, 4)], nodes=[9])
        indptr, indices = compiled.undirected_csr()
        rows = {
            int(compiled.node_ids[u]): compiled.node_ids[indices[indptr[u] : indptr[u + 1]]].tolist()
            for u in range(compiled.node_count)
        }
        assert rows == {1: [2, 3], 2: [1], 3: [1, 4], 4: [3], 9: []}

    def test_unknown_node_queries_are_empty(self):
        graph = CompiledGraph.from_edges([], nodes=[1])
        assert len(graph.followers_of(99)) == 0
        assert graph.followee_count(99) == 0

    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_edge_count_matches_iteration(self, edges):
        graph = CompiledGraph.from_edges(edges)
        listed = list(graph.edges())
        assert len(listed) == graph.edge_count
        assert set(listed) == set(edges)  # every pair once, no duplicates

    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_follower_followee_symmetry(self, edges):
        """u in followers_of(v) iff v in followees_of(u)."""
        graph = CompiledGraph.from_edges(edges)
        for node in graph.nodes():
            for follower in graph.followers_of(node).tolist():
                assert node in graph.followees_of(follower).tolist()
            for followee in graph.followees_of(node).tolist():
                assert node in graph.followers_of(followee).tolist()

    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_total_degree_is_twice_edges(self, edges):
        graph = CompiledGraph.from_edges(edges)
        total_degree = sum(graph.degree(node) for node in graph.nodes())
        assert total_degree == 2 * graph.edge_count

    @given(edges=edge_lists)
    @settings(max_examples=50, deadline=None)
    def test_undirected_csr_lists_followers_and_followees(self, edges):
        compiled = CompiledGraph.from_edges(edges)
        indptr, indices = compiled.undirected_csr()
        assert len(indptr) == compiled.node_count + 1
        for u, node in enumerate(compiled.node_ids.tolist()):
            row = compiled.node_ids[indices[indptr[u] : indptr[u + 1]]].tolist()
            neighbors = {v for a, v in edges if a == node} | {a for a, v in edges if v == node}
            assert row == sorted(neighbors)
