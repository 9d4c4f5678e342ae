"""The follow-graph crawler (§3.1: "For each user, we crawled her
follower and followee lists").

The paper's social-graph dataset came from a separate crawl of per-user
follower/followee list endpoints.  This crawler reproduces that process
against the simulated graph: paginated list fetches, BFS expansion from
seed users, token-bucket rate limiting, and a request budget — so the
coverage-vs-cost trade-off of graph crawling can be studied (and the
Table 2 metrics can be computed from a *crawled* copy rather than the
ground-truth graph).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.simulation.rate_limit import TokenBucket
from repro.social.graph import FollowGraph

#: Periscope-era list endpoints returned pages of this many users.
DEFAULT_PAGE_SIZE = 100


@dataclass
class GraphApi:
    """The service's follower/followee list API over a ground-truth graph.

    Exposes paginated reads and counts every request — the quantity rate
    limits bound.
    """

    graph: FollowGraph
    page_size: int = DEFAULT_PAGE_SIZE
    requests_served: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ValueError("page size must be positive")

    def _paged(self, members: Iterable[int], page: int) -> tuple[list[int], bool]:
        ordered = sorted(members)
        start = page * self.page_size
        chunk = ordered[start : start + self.page_size]
        has_more = start + self.page_size < len(ordered)
        return chunk, has_more

    def follower_page(self, user_id: int, page: int) -> tuple[list[int], bool]:
        """One page of a user's followers; returns (ids, has_more)."""
        self.requests_served += 1
        return self._paged(self.graph.followers_of(user_id), page)

    def followee_page(self, user_id: int, page: int) -> tuple[list[int], bool]:
        """One page of a user's followees; returns (ids, has_more)."""
        self.requests_served += 1
        return self._paged(self.graph.followees_of(user_id), page)


@dataclass
class GraphCrawl:
    """Outcome of one crawl: the recovered graph and its cost."""

    crawled: FollowGraph
    users_visited: int
    requests_made: int
    frontier_remaining: int

    def edge_coverage(self, truth: FollowGraph) -> float:
        if truth.edge_count == 0:
            return 1.0
        return self.crawled.edge_count / truth.edge_count


class FollowGraphCrawler:
    """BFS crawler over the follower/followee list API."""

    def __init__(
        self,
        api: GraphApi,
        rate_limit: Optional[TokenBucket] = None,
        request_budget: Optional[int] = None,
    ) -> None:
        if request_budget is not None and request_budget <= 0:
            raise ValueError("request budget must be positive")
        self.api = api
        self.rate_limit = rate_limit
        self.request_budget = request_budget
        self._requests = 0

    def _allowed(self, now: float) -> bool:
        if self.request_budget is not None and self._requests >= self.request_budget:
            return False
        if self.rate_limit is not None and not self.rate_limit.try_acquire(now):
            return False
        return True

    def crawl(
        self,
        seeds: list[int],
        now: float = 0.0,
        request_spacing_s: float = 0.0,
    ) -> GraphCrawl:
        """BFS from ``seeds``, fetching both lists of every visited user.

        ``request_spacing_s`` advances the (virtual) clock between
        requests so a rate limit refills realistically.
        """
        if not seeds:
            raise ValueError("need at least one seed user")
        crawled = FollowGraph()
        visited: set[int] = set()
        frontier: deque[int] = deque(seeds)
        clock = now
        exhausted = False

        while frontier and not exhausted:
            user = frontier.popleft()
            if user in visited:
                continue
            visited.add(user)
            crawled.add_node(user)
            for fetch, direction in (
                (self.api.follower_page, "in"),
                (self.api.followee_page, "out"),
            ):
                page = 0
                while True:
                    if not self._allowed(clock):
                        exhausted = True
                        break
                    self._requests += 1
                    clock += request_spacing_s
                    members, has_more = fetch(user, page)
                    for other in members:
                        if direction == "in":
                            crawled.add_follow(other, user)
                        else:
                            crawled.add_follow(user, other)
                        if other not in visited:
                            frontier.append(other)
                    if not has_more:
                        break
                    page += 1
                if exhausted:
                    break
        return GraphCrawl(
            crawled=crawled,
            users_visited=len(visited),
            requests_made=self._requests,
            frontier_remaining=len(frontier),
        )
