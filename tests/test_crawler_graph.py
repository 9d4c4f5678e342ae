"""Tests for the follow-graph crawler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crawler.graph_crawler import FollowGraphCrawler, GraphApi
from repro.simulation import TokenBucket
from repro.social.generation import FollowGraphConfig, generate_follow_graph
from repro.social.graph import CompiledGraph
from repro.social.metrics import compute_graph_metrics


@pytest.fixture
def truth(rng):
    return generate_follow_graph(FollowGraphConfig(n_nodes=250, mean_out_degree=6.0), rng)


class TestGraphApi:
    def test_pagination(self):
        graph = CompiledGraph.from_edges((follower, 999) for follower in range(1, 251))
        api = GraphApi(graph, page_size=100)
        page0, more0 = api.follower_page(999, 0)
        page1, more1 = api.follower_page(999, 1)
        page2, more2 = api.follower_page(999, 2)
        assert len(page0) == len(page1) == 100
        assert len(page2) == 50
        assert (more0, more1, more2) == (True, True, False)
        assert page0 + page1 + page2 == list(range(1, 251))  # ID order, no repeats
        assert api.requests_served == 3

    def test_empty_lists(self):
        api = GraphApi(CompiledGraph.from_edges([], nodes=[1]))
        members, has_more = api.follower_page(1, 0)
        assert members == []
        assert not has_more

    def test_validation(self):
        with pytest.raises(ValueError):
            GraphApi(CompiledGraph.from_edges([]), page_size=0)


class TestFollowGraphCrawler:
    def test_full_crawl_recovers_connected_component(self, truth):
        api = GraphApi(truth)
        crawler = FollowGraphCrawler(api)
        # The generator's graph is connected (seed clique + attachment).
        result = crawler.crawl(seeds=[0])
        assert result.edge_coverage(truth) == 1.0
        assert result.users_visited == truth.node_count
        assert result.frontier_remaining == 0

    def test_crawled_graph_reproduces_metrics(self, truth, rng):
        """Table 2 computed from the crawl matches the ground truth."""
        api = GraphApi(truth)
        result = FollowGraphCrawler(api).crawl(seeds=[0])
        crawled_metrics = compute_graph_metrics(
            result.crawled, np.random.default_rng(0), clustering_sample=100, path_sample=10
        )
        truth_metrics = compute_graph_metrics(
            truth, np.random.default_rng(0), clustering_sample=100, path_sample=10
        )
        # Samples are drawn by sorted node ID, so the crawled copy's row
        # does not depend on the order in which the crawl inserted nodes.
        assert crawled_metrics == truth_metrics

    def test_request_budget_truncates_crawl(self, truth):
        api = GraphApi(truth)
        crawler = FollowGraphCrawler(api, request_budget=20)
        result = crawler.crawl(seeds=[0])
        assert result.requests_made <= 20
        assert result.edge_coverage(truth) < 1.0
        assert result.frontier_remaining > 0

    def test_rate_limit_with_spacing_completes(self, truth):
        bucket = TokenBucket(rate_per_s=1000.0, capacity=10.0)
        crawler = FollowGraphCrawler(GraphApi(truth), rate_limit=bucket)
        result = crawler.crawl(seeds=[0], request_spacing_s=0.01)
        assert result.edge_coverage(truth) == 1.0

    def test_rate_limit_without_refill_truncates(self, truth):
        bucket = TokenBucket(rate_per_s=0.001, capacity=15.0)
        crawler = FollowGraphCrawler(GraphApi(truth), rate_limit=bucket)
        result = crawler.crawl(seeds=[0], request_spacing_s=0.0)
        assert result.requests_made <= 15
        assert result.edge_coverage(truth) < 1.0

    def test_disconnected_node_needs_its_own_seed(self):
        graph = CompiledGraph.from_edges([(1, 2)], nodes=[99])  # 99 is isolated
        api = GraphApi(graph)
        partial = FollowGraphCrawler(api).crawl(seeds=[1])
        assert 99 not in partial.crawled
        complete = FollowGraphCrawler(GraphApi(graph)).crawl(seeds=[1, 99])
        assert 99 in complete.crawled

    def test_validation(self, truth):
        with pytest.raises(ValueError):
            FollowGraphCrawler(GraphApi(truth), request_budget=0)
        with pytest.raises(ValueError):
            FollowGraphCrawler(GraphApi(truth)).crawl(seeds=[])
