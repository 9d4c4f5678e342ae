"""The global-list crawler (§3.1).

The global list API returns 50 randomly selected active broadcasts per
query.  To capture *every* broadcast, the paper ran multiple accounts each
refreshing every 5 s (the app's own rate), staggered so the aggregate
refresh hit 0.25 s; their validation showed 0.5 s already captured the
complete set.  This crawler reproduces that design against the simulated
service, including per-account rate limiting, so the coverage-vs-refresh
trade-off can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.service.errors import ServiceUnavailable
from repro.service.facade import LivestreamService
from repro.simulation.engine import Simulator
from repro.simulation.rate_limit import TokenBucket
from repro.simulation.resilience import RetryPolicy

#: Called when a broadcast is first discovered: (broadcast_id, time).
DiscoveryCallback = Callable[[int, float], None]


@dataclass
class CrawlerAccount:
    """One crawler account polling the global list every ``refresh_s``.

    The ``queries_*``/``retries`` fields are the *single source of truth*
    for crawl accounting; the registry-level ``crawler.*`` counters are
    derived from their sums by a snapshot-time collector, so the two views
    cannot drift apart.
    """

    account_id: int
    refresh_s: float
    start_offset_s: float
    queries_made: int = field(default=0, init=False)
    queries_throttled: int = field(default=0, init=False)
    queries_failed: int = field(default=0, init=False)
    retries: int = field(default=0, init=False)


class GlobalListCrawler:
    """Coordinates accounts to discover all broadcasts on the service."""

    def __init__(
        self,
        service: LivestreamService,
        simulator: Simulator,
        rng: np.random.Generator,
        n_accounts: int = 20,
        account_refresh_s: float = 5.0,
        rate_limit: Optional[TokenBucket] = None,
        on_discover: Optional[DiscoveryCallback] = None,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        if n_accounts <= 0:
            raise ValueError("need at least one account")
        if account_refresh_s <= 0:
            raise ValueError("refresh interval must be positive")
        self.service = service
        self.simulator = simulator
        self.rng = rng
        self.on_discover = on_discover
        self.retry_policy = retry_policy
        self._shared_rate_limit = rate_limit
        self._m_queries = metrics.counter("crawler.queries", help="global-list queries issued")
        self._m_throttled = metrics.counter("crawler.throttled", help="queries dropped by the rate limit")
        self._m_failed = metrics.counter("crawler.query_failures", help="queries the service rejected (brownout)")
        self._m_retries = metrics.counter("crawler.retries", help="retry attempts scheduled")
        self._m_discovered = metrics.counter("crawler.discovered", help="broadcasts first seen")
        self._m_coverage = metrics.gauge("crawler.coverage", help="discovered / total broadcasts")
        # Registry counters mirror the per-account tallies lazily; see
        # CrawlerAccount's docstring.
        metrics.add_collector(self._collect)
        # Stagger accounts evenly: aggregate refresh = refresh / n.
        self.accounts = [
            CrawlerAccount(
                account_id=i,
                refresh_s=account_refresh_s,
                start_offset_s=i * account_refresh_s / n_accounts,
            )
            for i in range(n_accounts)
        ]
        self.discovered: dict[int, float] = {}
        self._running = False

    @property
    def aggregate_refresh_s(self) -> float:
        return self.accounts[0].refresh_s / len(self.accounts)

    def start(self) -> None:
        if self._running:
            raise RuntimeError("crawler already started")
        self._running = True
        for account in self.accounts:
            self.simulator.schedule(
                account.start_offset_s,
                _AccountQuery(self, account),
                label=f"crawl:{account.account_id}",
            )

    def stop(self) -> None:
        self._running = False

    def _query(self, account: CrawlerAccount) -> None:
        if not self._running:
            return
        self._attempt(account, attempt=0, started_at=self.simulator.now)
        self.simulator.schedule(
            account.refresh_s, _AccountQuery(self, account), label=f"crawl:{account.account_id}"
        )

    def _attempt(self, account: CrawlerAccount, attempt: int, started_at: float) -> None:
        """One query attempt; failures hand off to the retry policy."""
        if not self._running:
            return
        now = self.simulator.now
        bucket = self._shared_rate_limit
        if bucket is not None and not bucket.try_acquire(now):
            account.queries_throttled += 1
            # The bucket knows exactly when a token lands; retry then
            # instead of blind exponential backoff.
            hint = (
                bucket.time_until_available(now)
                if self.retry_policy is not None
                else None
            )
            self._schedule_retry(account, attempt, started_at, hint)
            return
        try:
            # A retrying crawler insists on fresh data (a retryable error
            # beats a silently stale page); a naive one takes what it gets.
            page = self.service.global_list(
                now, self.rng, allow_stale=self.retry_policy is None
            )
        except ServiceUnavailable:
            account.queries_failed += 1
            self._schedule_retry(account, attempt, started_at, hint=None)
            return
        account.queries_made += 1
        for broadcast_id in page.broadcast_ids:
            if broadcast_id not in self.discovered:
                self.discovered[broadcast_id] = now
                self._m_discovered.inc()
                if self.on_discover is not None:
                    self.on_discover(broadcast_id, now)
        self._m_coverage.set(self.coverage())

    def _schedule_retry(
        self,
        account: CrawlerAccount,
        attempt: int,
        started_at: float,
        hint: Optional[float],
    ) -> None:
        policy = self.retry_policy
        if policy is None:
            return  # naive crawler: the query cycle is simply lost
        delay = policy.next_delay(
            attempt,
            elapsed_s=self.simulator.now - started_at,
            hint=hint,
            # Never let a retry sequence outlive the account's own cadence.
            deadline_s=min(policy.deadline_s, account.refresh_s),
        )
        if delay is None:
            return
        account.retries += 1
        self.simulator.schedule(
            delay,
            _AccountRetry(self, account, attempt + 1, started_at),
            label=f"crawl-retry:{account.account_id}",
        )

    def _collect(self, _registry: MetricsRegistry) -> None:
        """Snapshot-time sync of registry counters to per-account truth."""
        for counter, total in (
            (self._m_queries, sum(a.queries_made for a in self.accounts)),
            (self._m_throttled, sum(a.queries_throttled for a in self.accounts)),
            (self._m_failed, sum(a.queries_failed for a in self.accounts)),
            (self._m_retries, sum(a.retries for a in self.accounts)),
        ):
            if total > counter.value:
                counter.inc(total - counter.value)

    # -- evaluation ------------------------------------------------------

    def coverage(self) -> float:
        """Fraction of all broadcasts ever started that were discovered."""
        total = self.service.total_broadcast_count
        if total == 0:
            return 1.0
        return len(self.discovered) / total

    def discovery_latencies(self) -> np.ndarray:
        """Seconds from broadcast start to discovery, for discovered ones."""
        latencies = []
        for broadcast_id, found_at in self.discovered.items():
            broadcast = self.service.get_broadcast(broadcast_id)
            latencies.append(found_at - broadcast.start_time)
        return np.array(latencies)


class _AccountQuery:
    def __init__(self, crawler: GlobalListCrawler, account: CrawlerAccount) -> None:
        self._crawler = crawler
        self._account = account

    def __call__(self) -> None:
        self._crawler._query(self._account)


class _AccountRetry:
    """A scheduled retry of a failed or throttled query attempt."""

    def __init__(
        self,
        crawler: GlobalListCrawler,
        account: CrawlerAccount,
        attempt: int,
        started_at: float,
    ) -> None:
        self._crawler = crawler
        self._account = account
        self._attempt = attempt
        self._started_at = started_at

    def __call__(self) -> None:
        self._crawler._attempt(self._account, self._attempt, self._started_at)
