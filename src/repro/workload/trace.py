"""End-to-end workload trace generation.

Produces the synthetic equivalent of the paper's crawled datasets: a
:class:`~repro.crawler.dataset.BroadcastDataset` per application, plus the
follow graph and user population behind it.  All Table 1 / Figures 1–7
analyses run off these traces.  Generation reads the follow graph only as
each broadcaster's follower count, taken straight from the generator's
packed edge keys; the CSR that Table 2 walks is compiled from those keys
on the first read of :attr:`WorkloadTrace.graph`.

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
from typing import Callable, Iterable, Optional

import numpy as np

from repro.crawler.dataset import SECONDS_PER_DAY, BroadcastColumns, BroadcastDataset
from repro.simulation.distributions import guide_draw, guide_table, zipf_weights
from repro.simulation.randomness import RandomStreams, substream_seed
from repro.social.generation import FollowGraphConfig, generate_edge_keys, key_in_degrees
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

#: Zipf exponents of per-user activity skew (Figure 6): which pool slot
#: broadcasts, and which registered viewer takes a mobile view.
BROADCASTER_ZIPF = 0.85
VIEWER_ZIPF = 0.95


def derived_notification_open_rate(scale: float) -> float:
    """Probability that a notified follower joins, at trace scale ``scale``.

    Drives Figure 7's follower-driven audiences.  Smoothly approaches the
    realistic :data:`FULL_SCALE_OPEN_RATE` as ``scale`` approaches 1 and
    the hand-tuned small-scale boost below ``scale = 0.001`` — previously
    the 0.10 correction was applied at *every* scale, silently
    overcounting follower-driven views on large runs.
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

    #: Generate a follow graph (Periscope); Meerkat's graph was unavailable.
    with_social_graph: bool = True

    #: Number of day-range shards generation is dispatched in; 0 = auto
    #: (one per worker batch).  Never affects the generated data.
    shards: int = 0

    #: Worker processes for generation; 1 = in-process. Never affects the
    #: generated data.
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ValueError("scale must be in (0, 1]")
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

    def cache_key(self) -> str:
        """Stable hash of everything that determines the generated dataset.

        Deliberately excludes ``shards`` and ``workers`` — generation is
        schedule-independent, so the same key must hit for any of them.
        Generator constants (activity skew, the open rate's curve, the
        follow-graph model) are covered by ``TRACE_SCHEMA_VERSION``.
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
            "with_social_graph": self.with_social_graph,
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
    """A generated measurement: dataset + population + lazy follow graph.

    ``graph`` is a zero-argument callable returning the follow graph (or
    ``None``).  It runs once, on the first read of :attr:`graph`, so only
    an analysis that walks the graph (Table 2) pays for its CSR.
    """

    def __init__(
        self,
        config: TraceConfig,
        dataset: BroadcastDataset,
        graph: Callable[[], Optional[CompiledGraph]],
        broadcaster_ids: np.ndarray,
        viewer_ids: np.ndarray,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.broadcaster_ids = broadcaster_ids  # pool of broadcaster user IDs
        self.viewer_ids = viewer_ids  # pool of registered mobile viewer IDs
        self._graph: Optional[CompiledGraph] = None
        self._graph_factory: Optional[Callable[[], Optional[CompiledGraph]]] = graph

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
    broadcaster_guide: np.ndarray  # guide_table(broadcaster_cdf)
    viewer_guide: np.ndarray  # guide_table(viewer_cdf)
    follower_counts: np.ndarray  # aligned with broadcaster_ids
    audience_cap: int


def build_follow_graph(config: TraceConfig) -> Optional[np.ndarray]:
    """The trace's follow graph as packed edge keys (or ``None``).

    Draws from the ``graph`` substream only.  Nodes are ``0..N-1`` for
    ``N = config.total_users``, each edge the int64 ``follower << 32 |
    followee`` (:func:`repro.social.generation.generate_edge_keys`).
    Generation reads only their in-degrees (:func:`build_trace_context`);
    ``CompiledGraph.from_packed_keys(keys, N)`` compiles the CSR.
    """
    if not config.with_social_graph:
        return None
    streams = RandomStreams(config.seed)
    graph_config = FollowGraphConfig(n_nodes=config.total_users)
    return generate_edge_keys(graph_config, streams.get("graph"))


def _activity_cdf(n: int, exponent: float) -> np.ndarray:
    """CDF of Zipf activity over ``n`` pool slots, ending at exactly 1.0.

    The running sum can end a few ulps below 1 (Periscope's viewer CDF
    reads 0.999999999999999 at scale 0.001), and a draw past its end would
    pick slot ``n``, which does not exist.  Pinning the last entry moves
    no draw below the old end.
    """
    cdf = np.cumsum(zipf_weights(n, exponent))
    cdf[-1] = 1.0
    return cdf


def draw_pools(config: TraceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The broadcaster and viewer pools, as user IDs.

    Draws only from the ``trace/{app}/pools`` substream, so the pools are
    the same whether or not the graph and the days are generated: a
    dataset-cache hit reads them without the rest of the context.
    """
    rng = RandomStreams(config.seed).get(f"trace/{config.app_name}/pools")
    user_ids = np.arange(1, config.total_users + 1, dtype=np.int64)
    # Broadcaster and viewer pools are (possibly overlapping) subsets
    # of the user population.
    broadcaster_ids = rng.choice(user_ids, size=config.broadcaster_pool, replace=False)
    viewer_ids = rng.choice(user_ids, size=config.viewer_pool, replace=False)
    return broadcaster_ids, viewer_ids


def build_trace_context(
    config: TraceConfig, edge_keys: Optional[np.ndarray]
) -> ShardContext:
    """Deterministic per-run precompute: pools, activity CDFs, follower counts.

    Draws only from the ``trace/{app}/pools`` substream (:func:`draw_pools`),
    so the context is identical no matter how generation is later
    scheduled.  ``edge_keys`` (from :func:`build_follow_graph`) supply the
    follower counts; with ``None`` every broadcaster has 0 followers
    (Meerkat).  The keys are read, not kept.
    """
    broadcaster_ids, viewer_ids = draw_pools(config)

    if edge_keys is None:
        follower_counts = np.zeros(len(broadcaster_ids), dtype=np.int64)
    else:
        # User ID k reads node k's in-degree.  User IDs run 1..N but nodes
        # 0..N-1, so the extra slot N (no node, count 0) serves user N.
        in_degrees = key_in_degrees(edge_keys, minlength=config.total_users + 1)
        follower_counts = in_degrees[broadcaster_ids]

    # Per-user activity skew: CDFs and their guide tables for inverse sampling.
    broadcaster_cdf = _activity_cdf(len(broadcaster_ids), BROADCASTER_ZIPF)
    viewer_cdf = _activity_cdf(len(viewer_ids), VIEWER_ZIPF)

    return ShardContext(
        config=config,
        broadcaster_ids=broadcaster_ids,
        viewer_ids=viewer_ids,
        broadcaster_cdf=broadcaster_cdf,
        viewer_cdf=viewer_cdf,
        broadcaster_guide=guide_table(broadcaster_cdf),
        viewer_guide=guide_table(viewer_cdf),
        follower_counts=follower_counts,
        audience_cap=min(config.params.audience_cap, int(0.8 * len(viewer_ids))),
    )


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

    rank = guide_draw(context.broadcaster_cdf, context.broadcaster_guide, rng.random(n))
    durations = params_model.sample_durations(rng, n)
    organic = np.minimum(params_model.sample_audiences(rng, n), context.audience_cap)

    # Follower notifications add audience on top of organic discovery
    # (Figure 7: followers vs viewers correlation).
    followers = context.follower_counts[rank]
    notified = rng.binomial(followers, derived_notification_open_rate(config.scale))
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
    viewer_ranks = guide_draw(
        context.viewer_cdf, context.viewer_guide, rng.random(int(viewer_indptr[-1]))
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
