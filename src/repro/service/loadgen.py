"""Closed-loop load generation and the ``repro serve-bench`` harness.

:func:`run_serve_bench` stands up the full serving stack — a
:class:`~repro.service.facade.LivestreamService` (store, service tier)
with a region cache, behind an admission-controlled frontend — and drives
it with N closed-loop polling clients.  Each client thinks (exponential think
time from its own named rng substream), polls the global list, joins a
broadcast off the page with some probability, maybe comments or hearts,
and goes back to thinking; 503-style responses (shed / browned out) are
retried through the existing :class:`~repro.simulation.resilience.RetryPolicy`
with exponential backoff.  A churn driver starts and ends broadcasts on
the control plane so the live set the clients poll keeps moving.

An optional flash crowd joins mid-run: a burst of extra clients with a
much shorter think time, modelling the paper's suddenly-popular-broadcast
load spikes.  At baseline scale admission control never engages (zero
shed, zero errors); under the flash crowd the per-class token buckets turn
the excess away at the door while the latency of admitted requests stays
bounded — which is the property ``scripts/check.sh serve`` gates on.

Everything is driven by simulated time and named rng substreams, so one
seed produces one byte-identical :class:`ServeBenchReport` (including the
latency histogram's exact bucket counts).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.facade import LivestreamService
from repro.service.frontend import ERROR, OK, Response, ServiceFrontend
from repro.service.services import BroadcastService
from repro.service.store import RegionCache
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.simulation.resilience import RetryPolicy


@dataclass(frozen=True)
class FlashCrowdConfig:
    """A mid-run burst of impatient extra clients."""

    start_s: float = 20.0
    duration_s: float = 20.0
    extra_clients: int = 150
    think_time_s: float = 0.25

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("flash crowd start/duration must be sane")
        if self.extra_clients < 1:
            raise ValueError("extra_clients must be at least 1")
        if self.think_time_s <= 0:
            raise ValueError("think_time_s must be positive")


@dataclass(frozen=True)
class LoadGenConfig:
    """Knobs for one serve-bench run (defaults = the toy baseline)."""

    n_clients: int = 16
    duration_s: float = 60.0
    think_time_s: float = 2.0
    n_broadcasters: int = 8
    churn_interval_s: float = 5.0
    join_prob: float = 0.5
    comment_prob: float = 0.3
    heart_prob: float = 0.5
    region: str = "global"
    cache_ttl_s: float = 1.0
    concurrency: int = 4
    flash_crowd: Optional[FlashCrowdConfig] = None

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.n_broadcasters < 1:
            raise ValueError("need at least one client and one broadcaster")
        if self.duration_s <= 0 or self.think_time_s <= 0:
            raise ValueError("duration_s and think_time_s must be positive")
        if self.churn_interval_s < 0:
            raise ValueError("churn_interval_s must be non-negative (0 = no churn)")
        for name in ("join_prob", "comment_prob", "heart_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass
class _ClientStats:
    """Mutable tallies shared by every client in one run."""

    retries: int = 0
    give_ups: int = 0
    stale_joins: int = 0  # joins that raced a broadcast ending (expected)
    unexpected_errors: int = 0
    cycles: int = 0


class _Client:
    """One closed-loop polling client: think, poll, engage, repeat."""

    def __init__(
        self,
        client_id: int,
        viewer_id: int,
        frontend: ServiceFrontend,
        config: LoadGenConfig,
        rng,
        stats: _ClientStats,
        stop_at: float,
        think_time_s: float,
    ) -> None:
        self.client_id = client_id
        self.viewer_id = viewer_id
        self.frontend = frontend
        self.simulator = frontend.simulator
        self.config = config
        self.rng = rng
        self.stats = stats
        self.stop_at = stop_at
        self.think_time_s = think_time_s
        self.retry_policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.25, backoff=2.0, max_delay_s=2.0,
            jitter_frac=0.1, rng=rng,
        )
        self._attempt = 0
        self._cycle_started = 0.0

    def start(self) -> None:
        """Begin the loop with a uniform stagger (no thundering herd at 0)."""
        self.simulator.schedule(
            float(self.rng.random()) * self.think_time_s,
            self._cycle,
            label="client-think",
        )

    def _cycle(self) -> None:
        if self.simulator.now >= self.stop_at:
            return
        self.stats.cycles += 1
        self._attempt = 0
        self._cycle_started = self.simulator.now
        self._poll()

    def _poll(self) -> None:
        self.frontend.submit(
            "global_list", self.client_id, self._on_list, region=self.config.region
        )

    def _on_list(self, response: Response) -> None:
        if response.retryable:
            delay = self.retry_policy.next_delay(
                self._attempt, self.simulator.now - self._cycle_started
            )
            self._attempt += 1
            if delay is not None and self.simulator.now + delay < self.stop_at:
                self.stats.retries += 1
                self.simulator.schedule(delay, self._poll, label="client-retry")
            else:
                self.stats.give_ups += 1
                self._think()
            return
        page = response.page
        if (
            response.status == OK
            and page is not None
            and page.broadcast_ids
            and self.rng.random() < self.config.join_prob
        ):
            index = int(self.rng.integers(len(page.broadcast_ids)))
            self.frontend.submit(
                "join",
                self.client_id,
                self._on_join,
                broadcast_id=page.broadcast_ids[index],
                viewer_id=self.viewer_id,
            )
            return
        self._think()

    def _on_join(self, response: Response) -> None:
        self._count_failure(response)
        if response.status == OK:
            broadcast_id = response.request.broadcast_id
            if self.rng.random() < self.config.comment_prob:
                self.frontend.submit(
                    "comment", self.client_id, self._on_engage,
                    broadcast_id=broadcast_id, viewer_id=self.viewer_id,
                )
                return
            if self.rng.random() < self.config.heart_prob:
                self.frontend.submit(
                    "heart", self.client_id, self._on_engage,
                    broadcast_id=broadcast_id, viewer_id=self.viewer_id,
                )
                return
        self._think()

    def _on_engage(self, response: Response) -> None:
        self._count_failure(response)
        self._think()

    def _count_failure(self, response: Response) -> None:
        if response.status != ERROR:
            return
        if "has ended" in response.detail:
            # The page the client acted on can always be a beat behind the
            # live set (cache TTL + queueing); racing an ended broadcast is
            # an expected consequence of serving lists from snapshots.
            self.stats.stale_joins += 1
        else:
            self.stats.unexpected_errors += 1

    def _think(self) -> None:
        self.simulator.schedule(
            float(self.rng.exponential(self.think_time_s)),
            self._cycle,
            label="client-think",
        )


class _ChurnDriver:
    """Control-plane churn: end the oldest broadcast, start a fresh one."""

    def __init__(
        self,
        broadcasts: BroadcastService,
        simulator: Simulator,
        broadcaster_ids: list[int],
        interval_s: float,
        stop_at: float,
    ) -> None:
        self.broadcasts = broadcasts
        self.simulator = simulator
        self.broadcaster_ids = broadcaster_ids
        self.interval_s = interval_s
        self.stop_at = stop_at
        self.live: deque[int] = deque()
        self._next_broadcaster = 0

    def start_initial(self) -> None:
        for _ in self.broadcaster_ids:
            self._start_one()
        if self.interval_s > 0:
            self.simulator.schedule(self.interval_s, self._tick, label="churn")

    def _start_one(self) -> None:
        broadcaster_id = self.broadcaster_ids[
            self._next_broadcaster % len(self.broadcaster_ids)
        ]
        self._next_broadcaster += 1
        broadcast = self.broadcasts.start_broadcast(
            broadcaster_id, self.simulator.now
        )
        self.live.append(broadcast.broadcast_id)

    def _tick(self) -> None:
        if self.simulator.now >= self.stop_at:
            return
        if self.live:
            self.broadcasts.end_broadcast(self.live.popleft(), self.simulator.now)
        self._start_one()
        if self.simulator.now + self.interval_s <= self.stop_at:
            self.simulator.schedule(self.interval_s, self._tick, label="churn")

    def end_all(self, time: float) -> None:
        """Wind down every still-live bench broadcast."""
        while self.live:
            self.broadcasts.end_broadcast(self.live.popleft(), time)


@dataclass(frozen=True)
class ServeBenchReport:
    """The outcome of one serve-bench run, stable for a fixed seed."""

    seed: int
    admission_enabled: bool
    flash_crowd: bool
    duration_s: float
    n_clients: int
    requests: int
    ok: int
    shed: int
    unavailable: int
    errors: int
    stale_joins: int
    retries: int
    give_ups: int
    cache_served: int
    admitted: int
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    latency_p50_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_mean_s: float = 0.0
    latency_count: int = 0
    latency_histogram: dict[str, int] = field(default_factory=dict)
    list_p99_s: float = 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted requests turned away by admission."""
        return self.shed / self.requests if self.requests else 0.0

    @property
    def error_rate(self) -> float:
        """Fraction of submitted requests that failed unexpectedly."""
        return (self.errors + self.unavailable) / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """JSON-able snapshot (what the determinism check compares)."""
        return {
            "seed": self.seed,
            "admission_enabled": self.admission_enabled,
            "flash_crowd": self.flash_crowd,
            "duration_s": self.duration_s,
            "n_clients": self.n_clients,
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "unavailable": self.unavailable,
            "errors": self.errors,
            "stale_joins": self.stale_joins,
            "retries": self.retries,
            "give_ups": self.give_ups,
            "cache_served": self.cache_served,
            "admitted": self.admitted,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "shed_rate": self.shed_rate,
            "error_rate": self.error_rate,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "latency_mean_s": self.latency_mean_s,
            "latency_count": self.latency_count,
            "latency_histogram": dict(self.latency_histogram),
            "list_p99_s": self.list_p99_s,
        }

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            "serve-bench "
            f"(seed={self.seed}, clients={self.n_clients}, "
            f"duration={self.duration_s:g}s, "
            f"admission={'on' if self.admission_enabled else 'off'}, "
            f"flash_crowd={'on' if self.flash_crowd else 'off'})",
            f"  requests      {self.requests:8d}   ok {self.ok} / shed {self.shed}"
            f" / unavailable {self.unavailable} / errors {self.errors}",
            f"  shed rate     {self.shed_rate:8.2%}   error rate {self.error_rate:.2%}"
            f"   stale joins {self.stale_joins}",
            f"  retries       {self.retries:8d}   give-ups {self.give_ups}",
            f"  cache served  {self.cache_served:8d}   admitted {self.admitted}",
            f"  latency p50   {self.latency_p50_s * 1e3:8.2f} ms"
            f"   p99 {self.latency_p99_s * 1e3:.2f} ms"
            f"   mean {self.latency_mean_s * 1e3:.2f} ms"
            f"   (n={self.latency_count})",
            f"  list p99      {self.list_p99_s * 1e3:8.2f} ms",
        ]
        for reason, count in sorted(self.shed_by_reason.items()):
            lines.append(f"  shed[{reason}]  {count}")
        return "\n".join(lines)


def run_serve_bench(
    seed: int = 2016,
    config: Optional[LoadGenConfig] = None,
    admission: bool = True,
    admission_policy: Optional[AdmissionPolicy] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> ServeBenchReport:
    """Run one closed-loop serving benchmark and summarize it.

    Builds the tiered stack (the service facade with a region cache, the
    frontend) and drives it with ``config.n_clients`` polling clients for
    ``config.duration_s`` simulated seconds, plus the configured flash
    crowd.  Deterministic: the report (including exact latency histogram
    buckets) is a pure function of ``seed`` and ``config``.
    """
    config = config if config is not None else LoadGenConfig()
    metrics = metrics if metrics is not None else MetricsRegistry()
    simulator = Simulator(metrics=metrics)
    streams = RandomStreams(seed=seed)

    service = LivestreamService(
        metrics=metrics,
        region_cache=RegionCache(ttl_s=config.cache_ttl_s, metrics=metrics),
    )
    controller = (
        AdmissionController(policy=admission_policy, metrics=metrics)
        if admission
        else None
    )
    frontend = ServiceFrontend(
        simulator,
        service.broadcasts,
        service.lists,
        rng=streams.get("service.list"),
        admission=controller,
        concurrency=config.concurrency,
        metrics=metrics,
    )

    broadcasters = service.users.register_many(config.n_broadcasters)
    churn = _ChurnDriver(
        service.broadcasts,
        simulator,
        [user.user_id for user in broadcasters],
        config.churn_interval_s,
        stop_at=config.duration_s,
    )
    churn.start_initial()

    stats = _ClientStats()
    flash = config.flash_crowd
    extra = flash.extra_clients if flash is not None else 0
    viewers = service.users.register_many(config.n_clients + extra)

    for index in range(config.n_clients):
        _Client(
            client_id=index,
            viewer_id=viewers[index].user_id,
            frontend=frontend,
            config=config,
            rng=streams.get(f"loadgen.client.{index:04d}"),
            stats=stats,
            stop_at=config.duration_s,
            think_time_s=config.think_time_s,
        ).start()

    if flash is not None:

        def unleash_crowd() -> None:
            stop_at = min(config.duration_s, flash.start_s + flash.duration_s)
            for offset in range(flash.extra_clients):
                index = config.n_clients + offset
                _Client(
                    client_id=index,
                    viewer_id=viewers[index].user_id,
                    frontend=frontend,
                    config=config,
                    rng=streams.get(f"loadgen.flash.{offset:04d}"),
                    stats=stats,
                    stop_at=stop_at,
                    think_time_s=flash.think_time_s,
                ).start()

        simulator.schedule_at(flash.start_s, unleash_crowd, label="flash-crowd")

    simulator.run(until=config.duration_s)
    simulator.run()  # drain in-flight responses and post-deadline thinks
    churn.end_all(simulator.now)

    def counter_value(name: str) -> int:
        return int(metrics.counter(name).value) if name in metrics else 0

    shed_by_reason: dict[str, int] = {}
    if controller is not None:
        for name in metrics.names():
            prefix = "service.admission.shed."
            if name.startswith(prefix):
                value = int(metrics.counter(name).value)
                if value:
                    shed_by_reason[name[len(prefix):]] = value

    latency = metrics.histogram("service.request.latency_s")
    list_latency = metrics.histogram("service.request.latency_s.global_list")
    return ServeBenchReport(
        seed=seed,
        admission_enabled=admission,
        flash_crowd=flash is not None,
        duration_s=config.duration_s,
        n_clients=config.n_clients + extra,
        requests=counter_value("service.frontend.requests"),
        ok=counter_value("service.frontend.responses.ok"),
        shed=counter_value("service.frontend.responses.shed"),
        unavailable=counter_value("service.frontend.responses.unavailable"),
        errors=stats.unexpected_errors,
        stale_joins=stats.stale_joins,
        retries=stats.retries,
        give_ups=stats.give_ups,
        cache_served=counter_value("service.frontend.cache_served"),
        admitted=counter_value("service.admission.admitted"),
        shed_by_reason=shed_by_reason,
        latency_p50_s=latency.quantile(0.50) if latency.count else 0.0,
        latency_p99_s=latency.quantile(0.99) if latency.count else 0.0,
        latency_mean_s=latency.mean,
        latency_count=latency.count,
        latency_histogram=latency.bucket_counts() if latency.count else {},
        list_p99_s=list_latency.quantile(0.99) if list_latency.count else 0.0,
    )
