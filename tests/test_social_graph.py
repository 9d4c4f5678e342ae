"""Tests for the follow graph structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.social.graph import FollowGraph


class TestFollowGraph:
    def test_add_follow_creates_nodes(self):
        graph = FollowGraph()
        graph.add_follow(1, 2)
        assert 1 in graph
        assert 2 in graph
        assert graph.node_count == 2

    def test_follow_is_directional(self):
        graph = FollowGraph()
        graph.add_follow(1, 2)
        assert graph.follows(1, 2)
        assert not graph.follows(2, 1)

    def test_duplicate_follow_returns_false(self):
        graph = FollowGraph()
        assert graph.add_follow(1, 2)
        assert not graph.add_follow(1, 2)
        assert graph.edge_count == 1

    def test_self_follow_rejected(self):
        graph = FollowGraph()
        with pytest.raises(ValueError):
            graph.add_follow(1, 1)

    def test_followers_and_followees(self):
        graph = FollowGraph()
        graph.add_follow(1, 3)
        graph.add_follow(2, 3)
        graph.add_follow(3, 4)
        assert graph.followers_of(3) == {1, 2}
        assert graph.followees_of(3) == {4}
        assert graph.follower_count(3) == 2
        assert graph.followee_count(3) == 1

    def test_degree_counts_both_directions(self):
        graph = FollowGraph()
        graph.add_follow(1, 2)
        graph.add_follow(3, 2)
        graph.add_follow(2, 4)
        assert graph.degree(2) == 3

    def test_remove_follow(self):
        graph = FollowGraph()
        graph.add_follow(1, 2)
        assert graph.remove_follow(1, 2)
        assert not graph.follows(1, 2)
        assert graph.edge_count == 0
        assert not graph.remove_follow(1, 2)

    def test_edges_iteration(self):
        graph = FollowGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        assert set(graph.edges()) == {(1, 2), (2, 3), (3, 1)}

    def test_undirected_csr_of_compiled_graph(self):
        # 1 <-> 2 is reciprocated: one undirected link, listed once per end.
        graph = FollowGraph.from_edges([(1, 2), (2, 1), (3, 1), (3, 4)])
        graph.add_node(9)
        compiled = graph.compile()
        indptr, indices = compiled.undirected_csr()
        rows = {
            int(compiled.node_ids[u]): compiled.node_ids[indices[indptr[u] : indptr[u + 1]]].tolist()
            for u in range(compiled.node_count)
        }
        assert rows == {1: [2, 3], 2: [1], 3: [1, 4], 4: [3], 9: []}

    def test_unknown_node_queries_are_empty(self):
        graph = FollowGraph()
        assert graph.followers_of(99) == frozenset()
        assert graph.followee_count(99) == 0

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_edge_count_matches_iteration(self, edges):
        graph = FollowGraph()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        listed = list(graph.edges())
        assert len(listed) == graph.edge_count
        assert len(set(listed)) == graph.edge_count  # no duplicates

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_follower_followee_symmetry(self, edges):
        """u in followers_of(v) iff v in followees_of(u)."""
        graph = FollowGraph()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        for node in graph.nodes():
            for follower in graph.followers_of(node):
                assert node in graph.followees_of(follower)
            for followee in graph.followees_of(node):
                assert node in graph.followers_of(followee)

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_total_degree_is_twice_edges(self, edges):
        graph = FollowGraph()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        total_degree = sum(graph.degree(node) for node in graph.nodes())
        assert total_degree == 2 * graph.edge_count

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_undirected_csr_lists_followers_and_followees(self, edges):
        graph = FollowGraph()
        for follower, followee in edges:
            graph.add_follow(follower, followee)
        compiled = graph.compile()
        indptr, indices = compiled.undirected_csr()
        assert len(indptr) == compiled.node_count + 1
        for u, node in enumerate(compiled.node_ids.tolist()):
            row = compiled.node_ids[indices[indptr[u] : indptr[u + 1]]].tolist()
            assert row == sorted(graph.followers_of(node) | graph.followees_of(node))
