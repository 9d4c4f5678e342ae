#!/usr/bin/env python3
"""Scenario: designing the global-list crawler (§3.1's methodology).

The global list returns only 50 random active broadcasts per query, so
catching *every* broadcast requires aggregate refresh much faster than
the app's own 5 s.  The paper staggered 20 accounts for a 0.25 s
aggregate refresh and validated that 0.5 s already captured everything.
This example re-runs that validation against the simulated service:
coverage and discovery latency as a function of crawler account count,
plus the effect of a server-side rate limit.

Run:  python examples/crawl_coverage.py
"""

from __future__ import annotations

import numpy as np

from repro.crawler.global_list import GlobalListCrawler
from repro.service import LivestreamService
from repro.simulation import Simulator, TokenBucket

SIM_HORIZON_S = 400.0
BROADCASTS = 2000
MEDIAN_LENGTH_S = 12.0  # short streams stress the crawler


def run_crawl(n_accounts: int, rate_limit: TokenBucket | None = None):
    simulator = Simulator()
    service = LivestreamService(global_list_size=50)
    service.users.register_many(BROADCASTS + 10)
    rng = np.random.default_rng(77)

    # Churn: broadcasts start throughout the window and end quickly.
    for i in range(BROADCASTS):
        start = float(rng.uniform(0.0, SIM_HORIZON_S * 0.8))
        length = float(rng.lognormal(np.log(MEDIAN_LENGTH_S), 0.8))

        def begin(i=i, length=length):
            broadcast = service.start_broadcast(1 + i, time=simulator.now)
            simulator.schedule(
                length,
                lambda: service.end_broadcast(broadcast.broadcast_id, simulator.now),
            )

        simulator.schedule_at(start, begin)

    crawler = GlobalListCrawler(
        service, simulator, rng,
        n_accounts=n_accounts, account_refresh_s=5.0, rate_limit=rate_limit,
    )
    crawler.start()
    simulator.run(until=SIM_HORIZON_S)
    return crawler


def main() -> None:
    print(f"{BROADCASTS} broadcasts (median {MEDIAN_LENGTH_S:.0f}s) over "
          f"{SIM_HORIZON_S:.0f}s; global list shows 50 random active streams\n")
    print(f"{'accounts':>8}  {'agg refresh':>11}  {'coverage':>8}  {'median discovery':>16}")
    for n_accounts in (1, 2, 5, 10, 20):
        crawler = run_crawl(n_accounts)
        latencies = crawler.discovery_latencies()
        print(
            f"{n_accounts:>8}"
            f"  {crawler.aggregate_refresh_s:>10.2f}s"
            f"  {crawler.coverage():>7.1%}"
            f"  {np.median(latencies) if len(latencies) else float('nan'):>15.2f}s"
        )

    print("\nwith a server-side rate limit of 1 query/s (the paper's whitelisted")
    print("crawlers eventually could not keep up with broadcast growth):")
    limited = run_crawl(20, rate_limit=TokenBucket(rate_per_s=1.0, capacity=5.0))
    throttled = sum(a.queries_throttled for a in limited.accounts)
    print(f"  coverage {limited.coverage():.1%}, {throttled} queries throttled")


if __name__ == "__main__":
    main()
