"""End-to-end workload trace generation.

Produces the synthetic equivalent of the paper's crawled datasets: a
:class:`~repro.crawler.dataset.BroadcastDataset` per application, plus the
follow graph and user population behind it.  All Table 1 / Figures 1–7
analyses run off these traces.

Scaling: the paper's Periscope crawl covers 19.6M broadcasts by 1.85M
broadcasters with 705M views from a 12M-user network.  Running that raw
volume is unnecessary for shape reproduction, so all population and volume
constants scale by ``TraceConfig.scale`` (default 1/1000).  Audience-size
*distributions* are kept unscaled — views per broadcast is an intrinsic
quantity — except that the viral-audience cap is clamped to the scaled
viewer population.

Determinism & sharding: every measurement day draws from its own named
substream (``trace/{app}/day/{day}``) derived from the root seed, so a
day's broadcasts are a pure function of ``(config, day)``.  That makes the
generated dataset independent of how days are grouped into shards and of
how many workers generate them — :mod:`repro.parallel` exploits this to
fan generation out over processes while guaranteeing byte-identical
output for any ``shards``/``workers`` setting.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional, Union

import numpy as np

from repro.crawler.dataset import SECONDS_PER_DAY, BroadcastColumns, BroadcastDataset
from repro.simulation.distributions import zipf_weights
from repro.simulation.randomness import RandomStreams, substream_seed
from repro.social.generation import FollowGraphConfig, generate_follow_graph
from repro.social.graph import CompiledGraph
from repro.workload.arrivals import daily_arrival_times
from repro.workload.broadcast_model import BroadcastParamsModel
from repro.workload.growth import GrowthModel, MEERKAT_GROWTH, PERISCOPE_GROWTH

#: Bump when the generation algorithm changes in a way that alters output
#: for a fixed config — it feeds the on-disk dataset cache key.
#: 3: vectorized graph build + columnar per-day sampling (batched draws
#: replaced the per-record draw sequence).
TRACE_SCHEMA_VERSION = 3

#: Realistic notification-open probability at full scale (~2% of a
#: broadcaster's followers join from the push notification).
FULL_SCALE_OPEN_RATE = 0.02

#: Hand-calibrated correction at the smallest practical scale (1/1000):
#: follower counts shrink with the population while organic audiences do
#: not, so the rate is boosted to preserve the follower-driven share.
SMALL_SCALE_OPEN_RATE_CAP = 0.10

#: Exponent of the smooth interpolation between the two anchors above;
#: chosen so the derived rate hits the cap exactly at scale = 0.001.
_OPEN_RATE_ALPHA = math.log(SMALL_SCALE_OPEN_RATE_CAP / FULL_SCALE_OPEN_RATE) / math.log(1000)


def derived_notification_open_rate(scale: float) -> float:
    """Scale-aware default for :attr:`TraceConfig.notification_open_rate`.

    Smoothly approaches the realistic :data:`FULL_SCALE_OPEN_RATE` as
    ``scale`` approaches 1 and the hand-tuned small-scale boost below
    ``scale = 0.001`` — previously the 0.10 correction was applied at
    *every* scale, silently overcounting follower-driven views on large
    runs.
    """
    if not 0 < scale <= 1:
        raise ValueError("scale must be in (0, 1]")
    return min(SMALL_SCALE_OPEN_RATE_CAP, FULL_SCALE_OPEN_RATE * scale**-_OPEN_RATE_ALPHA)


@dataclass
class TraceConfig:
    """Scaled trace-generation parameters for one application."""

    app_name: str = "Periscope"
    scale: float = 0.001
    seed: int = 2016
    growth: GrowthModel = field(default_factory=lambda: PERISCOPE_GROWTH)
    params: BroadcastParamsModel = field(default_factory=BroadcastParamsModel.for_periscope)

    #: Full-scale population constants (paper values); scaled by ``scale``.
    total_users_full: int = 12_000_000
    broadcaster_pool_full: int = 1_850_000
    viewer_pool_full: int = 7_650_000

    #: Zipf exponents for per-user activity skew (Figure 6).
    broadcaster_zipf: float = 0.85
    viewer_zipf: float = 0.95

    #: Probability a notified follower joins (Figure 7 correlation).
    #: ``None`` (the default) derives it from ``scale`` via
    #: :func:`derived_notification_open_rate`; an explicit value is used
    #: untouched.
    notification_open_rate: Optional[float] = None

    #: Generate a follow graph (Periscope); Meerkat's graph was unavailable.
    with_social_graph: bool = True
    graph_mean_out_degree: float = 19.3

    #: Number of day-range shards generation is dispatched in; 0 = auto
    #: (one per worker batch).  Never affects the generated data.
    shards: int = 0

    #: Worker processes for generation; 1 = in-process. Never affects the
    #: generated data.
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
        if self.notification_open_rate is not None and not 0 <= self.notification_open_rate <= 1:
            raise ValueError("notification_open_rate must be within [0, 1]")
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = auto)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def total_users(self) -> int:
        return max(100, int(self.total_users_full * self.scale))

    @property
    def broadcaster_pool(self) -> int:
        return max(20, int(self.broadcaster_pool_full * self.scale))

    @property
    def viewer_pool(self) -> int:
        return max(50, int(self.viewer_pool_full * self.scale))

    @property
    def effective_notification_open_rate(self) -> float:
        """The open rate actually used: explicit value, or scale-derived."""
        if self.notification_open_rate is not None:
            return self.notification_open_rate
        return derived_notification_open_rate(self.scale)

    def cache_key(self) -> str:
        """Stable hash of everything that determines the generated dataset.

        Deliberately excludes ``shards`` and ``workers`` — generation is
        schedule-independent, so the same key must hit for any of them.
        """
        payload = {
            "trace_schema": TRACE_SCHEMA_VERSION,
            "app_name": self.app_name,
            "scale": self.scale,
            "seed": self.seed,
            "growth": asdict(self.growth),
            "params": asdict(self.params),
            "total_users_full": self.total_users_full,
            "broadcaster_pool_full": self.broadcaster_pool_full,
            "viewer_pool_full": self.viewer_pool_full,
            "broadcaster_zipf": self.broadcaster_zipf,
            "viewer_zipf": self.viewer_zipf,
            "notification_open_rate": self.effective_notification_open_rate,
            "with_social_graph": self.with_social_graph,
            "graph_mean_out_degree": self.graph_mean_out_degree,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    @classmethod
    def periscope(cls, scale: float = 0.001, seed: int = 2016, **kwargs) -> "TraceConfig":
        return cls(app_name="Periscope", scale=scale, seed=seed, **kwargs)

    @classmethod
    def meerkat(cls, scale: float = 0.001, seed: int = 2016, **kwargs) -> "TraceConfig":
        """Meerkat at the same scale: 164K broadcasts over 35 days."""
        return cls(
            app_name="Meerkat",
            scale=scale,
            seed=seed,
            growth=MEERKAT_GROWTH,
            params=BroadcastParamsModel.for_meerkat(),
            total_users_full=400_000,
            broadcaster_pool_full=57_000,
            viewer_pool_full=183_000,
            with_social_graph=False,
            **kwargs,
        )


class WorkloadTrace:
    """A generated measurement: dataset + population + optional graph.

    ``graph`` may be eager (a graph object or ``None``) or lazy: pass a
    zero-argument callable and it is invoked once on first access.  The
    dataset-cache hit path uses the lazy form so a cached run never pays
    the graph build unless an analysis actually touches ``trace.graph``.
    """

    def __init__(
        self,
        config: TraceConfig,
        dataset: BroadcastDataset,
        graph: Union[Optional[CompiledGraph], Callable[[], Optional[CompiledGraph]]],
        broadcaster_ids: np.ndarray,
        viewer_ids: np.ndarray,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.broadcaster_ids = broadcaster_ids  # pool of broadcaster user IDs
        self.viewer_ids = viewer_ids  # pool of registered mobile viewer IDs
        if callable(graph):
            self._graph: Optional[CompiledGraph] = None
            self._graph_factory: Optional[Callable[[], Optional[CompiledGraph]]] = graph
        else:
            self._graph = graph
            self._graph_factory = None

    @property
    def graph(self) -> Optional[CompiledGraph]:
        if self._graph_factory is not None:
            self._graph = self._graph_factory()
            self._graph_factory = None
        return self._graph

    @property
    def app_name(self) -> str:
        return self.config.app_name


@dataclass
class ShardContext:
    """Precomputed, picklable inputs shared by every generation shard.

    Holds everything :func:`generate_day_columns` needs — notably the
    follower count per broadcaster-pool slot instead of the full graph,
    so shipping a context to a worker process is a few small arrays, not
    millions of edges.
    """

    config: TraceConfig
    broadcaster_ids: np.ndarray
    viewer_ids: np.ndarray
    broadcaster_cdf: np.ndarray
    viewer_cdf: np.ndarray
    follower_counts: np.ndarray  # aligned with broadcaster_ids
    audience_cap: int


#: Sentinel distinguishing "build the graph here" from an explicit
#: ``graph=None`` (caller already knows there is none).
_BUILD_GRAPH: Any = object()


def build_follow_graph(config: TraceConfig) -> Optional[CompiledGraph]:
    """The trace's follow graph (or ``None``), from the ``graph`` substream.

    Split out of :func:`build_trace_context` so callers can time — and
    reuse — the dominant precompute phase separately.
    """
    if not config.with_social_graph:
        return None
    streams = RandomStreams(config.seed)
    graph_config = FollowGraphConfig(
        n_nodes=config.total_users, mean_out_degree=config.graph_mean_out_degree
    )
    return generate_follow_graph(graph_config, streams.get("graph"))


def build_trace_context(
    config: TraceConfig,
    graph: Optional[CompiledGraph] = _BUILD_GRAPH,
) -> tuple[ShardContext, Optional[CompiledGraph]]:
    """Deterministic per-run precompute: pools, activity CDFs, graph.

    Draws only from the ``trace/{app}/pools`` and ``graph`` substreams, so
    the context is identical no matter how generation is later scheduled.
    Pass ``graph`` (from :func:`build_follow_graph`) to reuse an already
    built graph; by default one is built here.
    """
    streams = RandomStreams(config.seed)
    rng = streams.get(f"trace/{config.app_name}/pools")

    total_users = config.total_users
    user_ids = np.arange(1, total_users + 1, dtype=np.int64)

    # Broadcaster and viewer pools are (possibly overlapping) subsets
    # of the user population.
    broadcaster_ids = rng.choice(user_ids, size=config.broadcaster_pool, replace=False)
    viewer_ids = rng.choice(user_ids, size=config.viewer_pool, replace=False)

    if graph is _BUILD_GRAPH:
        graph = build_follow_graph(config)
    if graph is not None:
        follower_counts = graph.in_degree_of(broadcaster_ids)
    else:
        follower_counts = np.zeros(len(broadcaster_ids), dtype=np.int64)

    # Per-user activity skew: precompute CDFs for inverse sampling.
    broadcaster_cdf = np.cumsum(zipf_weights(len(broadcaster_ids), config.broadcaster_zipf))
    viewer_cdf = np.cumsum(zipf_weights(len(viewer_ids), config.viewer_zipf))

    context = ShardContext(
        config=config,
        broadcaster_ids=broadcaster_ids,
        viewer_ids=viewer_ids,
        broadcaster_cdf=broadcaster_cdf,
        viewer_cdf=viewer_cdf,
        follower_counts=follower_counts,
        audience_cap=min(config.params.audience_cap, int(0.8 * len(viewer_ids))),
    )
    return context, graph


def day_substream_seed(config: TraceConfig, day: int) -> int:
    """Seed of measurement day ``day``'s private random substream."""
    return substream_seed(config.seed, f"trace/{config.app_name}/day/{day}")


def generate_day_columns(context: ShardContext, day: int) -> BroadcastColumns:
    """All broadcasts starting on measurement day ``day``, as columns.

    A pure function of ``(context.config, day)``: the day draws from its
    own substream, so the result does not depend on which shard or worker
    runs it.  Every random quantity is drawn as one batched call in a
    fixed order, so the draw schedule depends only on the day's broadcast
    count.  Broadcast IDs are day-local (1-based) placeholders; the merge
    (:func:`repro.parallel.merge.stream_merge_shards`) re-keys them
    globally.
    """
    config = context.config
    params_model = config.params
    rng = np.random.default_rng(day_substream_seed(config, day))
    expected = config.growth.broadcasts_on(day) * config.scale
    offsets = daily_arrival_times(rng, expected)
    n = len(offsets)

    rank = np.searchsorted(context.broadcaster_cdf, rng.random(n))
    durations = params_model.sample_durations(rng, n)
    organic = np.minimum(params_model.sample_audiences(rng, n), context.audience_cap)

    # Follower notifications add audience on top of organic discovery
    # (Figure 7: followers vs viewers correlation).
    followers = context.follower_counts[rank]
    notified = rng.binomial(followers, config.effective_notification_open_rate)
    audience = np.minimum(organic + notified, context.audience_cap)

    excitement = rng.lognormal(mean=0.0, sigma=0.6, size=n)
    web_views = rng.binomial(audience, params_model.web_view_fraction)
    mobile_views = (audience - web_views).astype(np.int64)
    hearts, comments, commenters = params_model.sample_engagements(
        rng, audience, mobile_views, excitement
    )

    # Assign mobile views to registered viewers (Zipf-skewed activity).
    viewer_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(mobile_views, out=viewer_indptr[1:])
    viewer_ranks = np.searchsorted(
        context.viewer_cdf, rng.random(int(viewer_indptr[-1]))
    )

    return BroadcastColumns(
        app_name=config.app_name,
        broadcast_id=np.arange(1, n + 1, dtype=np.int64),
        broadcaster_id=context.broadcaster_ids[rank],
        start_time=day * SECONDS_PER_DAY + offsets,
        duration_s=durations,
        web_views=web_views.astype(np.int64),
        heart_count=hearts,
        comment_count=comments,
        commenter_count=commenters,
        # The crawl only ever sees public broadcasts (private ones are
        # absent from the global list), so the growth curves — which are
        # calibrated to the paper's *observed* volumes — already describe
        # public broadcasts only.
        is_private=np.zeros(n, dtype=bool),
        broadcaster_followers=followers,
        viewer_indptr=viewer_indptr,
        viewer_ids=context.viewer_ids[viewer_ranks],
    )


def assemble_dataset_columns(
    config: TraceConfig, day_columns: Iterable[BroadcastColumns]
) -> BroadcastDataset:
    """Merge per-day column batches (in day order) in memory.

    Concatenates, applies a stable sort on ``(start_time, day-local
    broadcast_id)`` and re-keys IDs globally ``1..N``.  Start times of
    different days can never tie (day offsets are strictly below one
    day), so the day-local IDs only break ties within a day.  Generation
    itself merges shard files out of core
    (:func:`repro.parallel.merge.stream_merge_shards`); this is the
    in-memory oracle the tests hold that merge to, byte for byte.
    """
    combined = BroadcastColumns.concat(list(day_columns), app_name=config.app_name)
    order = np.lexsort((combined.broadcast_id, combined.start_time))
    if not np.array_equal(order, np.arange(len(order))):
        combined = combined.take(order)
    n = len(combined)
    ids = combined.broadcast_id
    # Cheap endpoint probe first: day-local IDs restart at 1 every day, so
    # anything but an already-global 1..n keying fails it without the full
    # comparison, and the re-key allocation is skipped when it would be a
    # no-op (single-day runs, resorted-but-already-keyed input).
    already_keyed = n == 0 or (
        ids[0] == 1 and ids[-1] == n and np.array_equal(ids, np.arange(1, n + 1))
    )
    if not already_keyed:
        combined.broadcast_id = np.arange(1, n + 1, dtype=np.int64)
    return BroadcastDataset(config.app_name, config.growth.days, combined)
