"""Sharded, multi-process workload-trace generation.

The paper's Periscope dataset is 19.6M broadcasts / 705M views; a
single-process generation loop is only practical around ``scale=0.001``,
which hides scaling bugs and keeps every figure pipeline toy-sized.  This
module fans generation out over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* the day range is partitioned into deterministic shards
  (:func:`repro.parallel.sharding.plan_shards`),
* every day draws from its own seed-derived substream, so results are
  schedule-independent — ``workers=1`` and ``workers=N`` produce
  byte-identical datasets for the same config,
* every shard — generated in a pool worker, by the in-process fallback,
  or in degraded mode — is written by one function to a checksummed
  ``shard-NNNNN.arrays`` file (:mod:`repro.crawler.arrayfile`) in the
  run dir or a scratch dir, and one handler publishes it; the frozen
  :class:`~repro.workload.trace.ShardContext` ships to workers through a
  page-aligned mmap'd file that each worker attaches read-only, so only
  paths and timings cross the process boundary,
* the pool loop *survives its workers*: shards are submitted individually
  and retried with capped backoff on failure, a per-shard deadline
  (:data:`SHARD_DEADLINE_S`) convicts hung workers, a
  ``BrokenProcessPool`` rebuilds the pool and resubmits only unfinished
  shards, and after :data:`POOL_REBUILDS` rebuilds generation degrades to
  the in-process walk rather than give up — all of which is
  output-invariant because re-run shards are byte-identical by
  construction,
* with a ``run_dir``, every finished shard is checkpointed through
  :class:`repro.parallel.checkpoint.RunCheckpoint` (atomic shard files +
  manifest), so an interrupted run resumes without repeating done shards,
* workloads too small to amortize pool startup fall back to the
  in-process walk (``MIN_BROADCASTS_PER_WORKER``), and automatic shards
  are planned for the workers actually used — the fallback only
  changes scheduling, never bytes,
* the shard files are merged *out of core* by the streaming merge
  (:mod:`repro.parallel.merge`), which copies them straight into the
  final ``mmap`` cache format in bounded windows, so peak RSS never
  holds the whole dataset,
* an optional on-disk cache (:class:`repro.crawler.storage.DatasetCache`,
  keyed by :meth:`TraceConfig.cache_key`) lets figure experiments reuse
  generated traces across processes.  The cache is probed *before* any
  precompute, so a hit costs a read, not a graph build,
* the follow graph stays the generator's packed edge keys: generation
  reads only their in-degrees, and ``trace.graph`` compiles the CSR on
  first read — from the kept keys after a miss, from keys rebuilt off the
  seed after a hit.

Recovery paths are provable: the :mod:`repro.parallel.faults` harness
(``REPRO_TRACE_FAULTS``) injects worker kills, hangs, task failures, and
shard-file corruption on demand, and the crash-path tests assert the
faulted output stays byte-identical to a clean run.

Per-phase wall times (graph build, context, generation, merge), shard
timings, retry/rebuild/resume counts, and cache traffic are published
through the :mod:`repro.obs` registry passed in (no-op by default).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.obs import NULL_REGISTRY, peak_rss_mb
from repro.crawler.arrayfile import read_arrays, staging_path, write_arrays
from repro.crawler.storage import DatasetCache
from repro.parallel.checkpoint import RunCheckpoint, shard_filename
from repro.parallel.merge import stream_merge_shards, write_shard_file
from repro.parallel.faults import (
    PERSIST_FAULT_KINDS,
    PipelineFault,
    fault_plan_from_env,
    inject_persist_fault,
    inject_worker_fault,
)
from repro.parallel.sharding import ShardSpec, plan_shards
from repro.social.graph import CompiledGraph
from repro.workload.trace import (
    BroadcastDataset,
    ShardContext,
    TraceConfig,
    WorkloadTrace,
    build_follow_graph,
    build_trace_context,
    draw_pools,
    generate_day_columns,
)

#: Below this expected per-worker broadcast volume a process pool costs
#: more than it saves, so generation stays in-process.  A core generates
#: ~400K broadcasts/s, so a share this size is ~0.1 s of work, the order
#: of the pool's own start-up.  Read at call time, so tests and the chaos
#: smoke patch it to ``0`` to force the pool.
MIN_BROADCASTS_PER_WORKER = 50_000

#: Per-shard retry budget: a shard may fail this many times (worker
#: exception, killed worker, blown deadline) before the run errors out.
#: Kept above the pool-rebuild cap so shards that merely *shared a pool*
#: with a crashing one never exhaust their budget before degradation.
SHARD_RETRIES = 4

#: Per-shard wall-clock deadline in seconds, measured from when the
#: shard's future is first observed running; ``0`` disables it.  A blown
#: deadline is treated as a pool failure — the hung worker cannot be
#: cancelled, only its pool killed.
SHARD_DEADLINE_S = 0.0

#: How many times the pool is rebuilt after breaking before generation
#: degrades to the in-process walk for the remaining shards.
POOL_REBUILDS = 3

#: Retry backoff: ``min(base * 2**(attempt-1), cap)`` seconds before a
#: shard's re-submission — enough to let a transient (fd pressure, a
#: dying sibling) clear, bounded so chaos tests stay fast.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 1.0

#: Poll interval for the deadline clock; only paid when a deadline is set.
_POLL_SECONDS = 0.05

#: ShardContext array fields shipped to workers through a mapped file
#: (the remaining fields — config and audience_cap — travel as initargs).
_CONTEXT_ARRAY_FIELDS = (
    "broadcaster_ids",
    "viewer_ids",
    "broadcaster_cdf",
    "viewer_cdf",
    "broadcaster_guide",
    "viewer_guide",
    "follower_counts",
)

#: Per-worker-process shard context (set by the pool initializer, or
#: inherited from the parent on fork start methods).
_WORKER_CONTEXT: Optional[ShardContext] = None


# -- worker-side shard execution ---------------------------------------


def _init_worker(config: TraceConfig, audience_cap: int, context_path: str) -> None:
    """Attach read-only mapped views of the parent's context arrays."""
    global _WORKER_CONTEXT
    arrays, _meta = read_arrays(context_path)
    context = ShardContext(
        config=config,
        audience_cap=audience_cap,
        **{name: arrays[name] for name in _CONTEXT_ARRAY_FIELDS},
    )
    # Written exactly once per worker process, by the pool initializer,
    # before any shard runs — worker-local configuration, not shared state.
    _WORKER_CONTEXT = context


def _write_shard(
    spec: ShardSpec, context: ShardContext, out_dir: str
) -> tuple[int, str, float]:
    """Generate one shard's days and write them to a shard file.

    The one shard writer: pool workers, the in-process fallback and the
    degraded mode all produce their shards here, through
    :func:`~repro.parallel.merge.write_shard_file`.  The file is written
    under its staging name (``.tmp<pid>``) — the parent promotes it with
    ``os.replace`` (directly, or through the run checkpoint), so a worker
    killed mid-write can never leave a plausible-looking shard file
    behind.  Returns ``(shard_id, temp_path, seconds)``, the seconds
    covering generation only — just metadata crosses the process
    boundary.
    """
    started = time.perf_counter()
    day_columns = [generate_day_columns(context, day) for day in spec.days()]
    seconds = time.perf_counter() - started
    temp = staging_path(Path(out_dir) / shard_filename(spec.shard_id))
    write_shard_file(temp, day_columns)
    return spec.shard_id, str(temp), seconds


def _write_shard_in_worker(
    spec: ShardSpec, out_dir: str, attempt: int
) -> tuple[int, str, float]:
    """Pool-worker entry point: fire any injected worker fault, then
    :func:`_write_shard` with the context the initializer attached.

    Worker faults fire only here — an injected ``os._exit`` must kill a
    *worker*, never the parent running the in-process fallback.
    """
    if _WORKER_CONTEXT is None:
        raise RuntimeError("worker process has no shard context (initializer not run)")
    inject_worker_fault(fault_plan_from_env(), spec.shard_id, attempt)
    return _write_shard(spec, _WORKER_CONTEXT, out_dir)


def effective_workers(config: TraceConfig, n_shards: int) -> int:
    """Worker processes generation will actually use.

    ``config.workers`` capped by the shard count, then collapsed to 1
    when the expected broadcast volume per worker is below
    ``MIN_BROADCASTS_PER_WORKER`` — pool startup would dominate.  Purely
    a scheduling decision; the generated bytes never depend on it.
    """
    workers = min(config.workers, n_shards)
    if workers <= 1:
        return 1
    expected = config.growth.total_broadcasts() * config.scale
    if expected < MIN_BROADCASTS_PER_WORKER * workers:
        return 1
    return workers


# -- resilient pool loop ------------------------------------------------


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now* — hung or crashed workers included."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _persist_fault_pending(
    plan: tuple[PipelineFault, ...], shard_id: int, attempt: int
) -> bool:
    return any(
        fault.kind in PERSIST_FAULT_KINDS and fault.matches(shard_id, attempt)
        for fault in plan
    )


def _run_shards_resilient(
    pending: list[ShardSpec],
    make_pool: Callable[[], ProcessPoolExecutor],
    out_dir: str,
    publish: Callable[[ShardSpec, int, tuple], None],
    run_inline: Callable[[ShardSpec, int], None],
    registry,
) -> None:
    """Drive shard futures to completion through worker failures.

    Each worker writes its shard's temp file into ``out_dir``; every
    finished result goes to ``publish``.

    Individual task failures are retried with capped backoff up to
    :data:`SHARD_RETRIES` extra attempts.  Pool-level failures — a
    ``BrokenProcessPool`` (crashed worker) or a shard blowing the
    :data:`SHARD_DEADLINE_S` clock — kill the pool, bump the attempt
    count of every in-flight shard (their work died with the pool), and
    rebuild; after :data:`POOL_REBUILDS` rebuilds the remaining shards
    run in-process instead.  None of this can change the merged bytes: a
    re-run shard regenerates the exact same columns.
    """
    retries_counter = registry.counter(
        "trace.shard_retries", "shard generation attempts retried"
    )
    failures_counter = registry.counter(
        "trace.worker_failures", "pool-level worker failures (crash or deadline)"
    )
    rebuilds_counter = registry.counter(
        "trace.pool_rebuilds", "process pools rebuilt after worker failures"
    )

    queue = deque(sorted(pending, key=lambda spec: spec.shard_id))
    attempts: dict[int, int] = {spec.shard_id: 0 for spec in pending}
    inflight: dict[Future, tuple[ShardSpec, int]] = {}
    running_since: dict[Future, float] = {}
    rebuilds = 0
    pool = make_pool()

    def _charge(spec: ShardSpec, cause: BaseException | str) -> None:
        """Bill one failed attempt to ``spec``; error out past the budget."""
        attempts[spec.shard_id] += 1
        if attempts[spec.shard_id] > SHARD_RETRIES:
            raise RuntimeError(
                f"shard {spec.shard_id} failed after {attempts[spec.shard_id]} "
                f"attempts (last failure: {cause}); inspect the worker logs"
            ) from (cause if isinstance(cause, BaseException) else None)
        queue.append(spec)

    try:
        while queue or inflight:
            broken = False
            while queue and not broken:
                spec = queue.popleft()
                attempt = attempts[spec.shard_id]
                if attempt:
                    time.sleep(min(_BACKOFF_BASE * 2 ** (attempt - 1), _BACKOFF_CAP))
                try:
                    future = pool.submit(_write_shard_in_worker, spec, out_dir, attempt)
                except BrokenProcessPool:
                    queue.appendleft(spec)
                    broken = True
                else:
                    inflight[future] = (spec, attempt)

            hung = False
            if not broken and inflight:
                done, _ = wait(
                    set(inflight),
                    timeout=_POLL_SECONDS if SHARD_DEADLINE_S else None,
                    return_when=FIRST_COMPLETED,
                )
                now = time.perf_counter()
                for future in done:
                    spec, attempt = inflight.pop(future)
                    running_since.pop(future, None)
                    error = future.exception()
                    if error is None:
                        publish(spec, attempt, future.result())
                    elif isinstance(error, BrokenProcessPool):
                        # The pool died under this shard; the common
                        # requeue below charges it with the rest.
                        inflight[future] = (spec, attempt)
                        broken = True
                    else:
                        retries_counter.inc()
                        _charge(spec, error)
                if SHARD_DEADLINE_S and not broken:
                    for future in inflight:
                        if not future.running():
                            continue
                        started = running_since.setdefault(future, now)
                        if now - started > SHARD_DEADLINE_S:
                            hung = True
                    broken = hung

            if broken:
                failures_counter.inc()
                _kill_pool(pool)
                # Harvest in-flight futures that actually finished before
                # the pool died; everything else is charged and requeued.
                casualties = []
                for future, (spec, attempt) in inflight.items():
                    if future.done() and future.exception() is None:
                        publish(spec, attempt, future.result())
                    else:
                        casualties.append(spec)
                inflight.clear()
                running_since.clear()
                for spec in casualties:
                    retries_counter.inc()
                    _charge(spec, "deadline exceeded" if hung else "worker crashed")
                rebuilds += 1
                if rebuilds > POOL_REBUILDS:
                    # The pool keeps dying — finish in-process, which no
                    # worker fault can touch.  Same bytes, no parallelism.
                    registry.counter(
                        "trace.pool_degraded",
                        "generation runs degraded to in-process after repeated "
                        "pool failures",
                    ).inc()
                    while queue:
                        spec = queue.popleft()
                        run_inline(spec, attempts[spec.shard_id])
                    return
                rebuilds_counter.inc()
                pool = make_pool()
        pool.shutdown(wait=True)
        pool = None
    finally:
        if pool is not None:
            _kill_pool(pool)


# -- dataset generation -------------------------------------------------


def generate_dataset(
    config: TraceConfig,
    context: ShardContext,
    registry=NULL_REGISTRY,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    merge_path: Optional[Union[str, Path]] = None,
) -> BroadcastDataset:
    """Generate the broadcast dataset from a prebuilt context.

    Honours ``config.shards`` / ``config.workers``; the output is
    independent of both (test-enforced).  Every shard becomes a
    ``shard-NNNNN.arrays`` file, and
    :func:`~repro.parallel.merge.stream_merge_shards` builds the dataset
    from those files out of core.

    With a ``run_dir``, finished shards are checkpointed there
    (:class:`~repro.parallel.checkpoint.RunCheckpoint`) and — when
    ``resume`` is true — shards already journaled ``done`` are merged
    from disk instead of regenerated, so an interrupted run repeats no
    finished work.  Without one, shard files live in a scratch directory
    (under ``$TMPDIR``) removed on return.  Checkpointing never changes
    the merged bytes.

    ``merge_path`` names where the merge publishes its ``mmap``-format
    file (this is how :func:`generate_trace` streams straight into the
    dataset-cache entry); default is ``<run_dir>/merged.cols``, or a
    scratch file.  The returned dataset maps that file read-only; on
    POSIX the mapping outlives the scratch file's unlink.
    """
    fault_plan = fault_plan_from_env()
    # Auto shards are planned for the workers actually used, so a run that
    # falls back to one worker writes and merges one shard.
    days = config.growth.days
    workers = effective_workers(config, min(config.shards or days, days))
    specs = plan_shards(days, shards=config.shards, workers=workers)

    checkpoint: Optional[RunCheckpoint] = None
    if run_dir is not None:
        checkpoint = RunCheckpoint.open(
            run_dir, config.cache_key(), specs, resume=resume
        )

    registry.gauge("trace.workers", "worker processes used for generation").set(workers)
    registry.gauge("trace.shards", "day-range shards generated").set(len(specs))
    shard_seconds = registry.histogram(
        "trace.shard_seconds", "wall seconds per generation shard"
    )

    generate_started = time.perf_counter()
    shard_files: dict[int, Path] = {}
    if checkpoint is not None:
        for shard_id in checkpoint.done_shards:
            shard_files[shard_id] = checkpoint.shard_path(shard_id)
        registry.counter(
            "trace.shards_resumed", "checkpointed shards loaded instead of regenerated"
        ).inc(checkpoint.resumed)
    pending = [spec for spec in specs if spec.shard_id not in shard_files]

    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        scratch = Path(tmp)
        out_dir = checkpoint.root if checkpoint is not None else scratch

        def _publish(spec: ShardSpec, attempt: int, result: tuple) -> None:
            """Promote a finished shard file and record it for the merge."""
            shard_id, temp_path, seconds = result
            if checkpoint is None:
                shard_files[shard_id] = scratch / shard_filename(shard_id)
                os.replace(temp_path, shard_files[shard_id])
            elif _persist_fault_pending(fault_plan, shard_id, attempt):
                # The injected damage is for a later resume to find; the
                # merge reads a clean copy taken before it lands.
                path = checkpoint.publish_shard(shard_id, temp_path)
                shard_files[shard_id] = scratch / shard_filename(shard_id)
                shutil.copyfile(path, shard_files[shard_id])
                inject_persist_fault(fault_plan, shard_id, attempt, path)
            else:
                shard_files[shard_id] = checkpoint.publish_shard(shard_id, temp_path)
            shard_seconds.observe(seconds)

        def _run_inline(spec: ShardSpec, attempt: int = 0) -> None:
            """Generate one shard in-process (fallback and degraded modes)."""
            _publish(spec, attempt, _write_shard(spec, context, str(out_dir)))

        if workers <= 1:
            for spec in pending:
                _run_inline(spec)
        elif pending:
            context_path = scratch / "context.arrays"
            write_arrays(
                context_path,
                {name: getattr(context, name) for name in _CONTEXT_ARRAY_FIELDS},
            )
            _run_shards_resilient(
                pending,
                make_pool=lambda: ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_init_worker,
                    initargs=(config, context.audience_cap, str(context_path)),
                ),
                out_dir=str(out_dir),
                publish=_publish,
                run_inline=_run_inline,
                registry=registry,
            )
        registry.gauge(
            "trace.generate_seconds", "wall seconds in per-day generation (all shards)"
        ).set(time.perf_counter() - generate_started)

        merge_started = time.perf_counter()
        dataset = stream_merge_shards(
            config,
            [shard_files[shard_id] for shard_id in sorted(shard_files)],
            merge_path if merge_path is not None else out_dir / "merged.cols",
        )
    registry.gauge(
        "trace.merge_seconds", "wall seconds merging and re-keying shard output"
    ).set(time.perf_counter() - merge_started)
    registry.gauge(
        "trace.merge_streamed",
        "1 when the out-of-core streaming merge produced the dataset (always)",
    ).set(1.0)
    rss = peak_rss_mb()
    if rss is not None:
        registry.gauge(
            "trace.peak_rss_mb", "process peak RSS high-water mark (MiB, ru_maxrss)"
        ).set(rss)
    registry.counter("trace.broadcasts", "broadcast records generated").inc(len(dataset))
    return dataset


def _compile_graph(
    config: TraceConfig, edge_keys: Optional[np.ndarray] = None
) -> Optional[CompiledGraph]:
    """``trace.graph``: the CSR of ``edge_keys``, compiled in place.

    Without keys (a dataset-cache hit kept none) they are rebuilt from the
    seed first.  ``None`` for an app without a follow graph.
    """
    if edge_keys is None:
        edge_keys = build_follow_graph(config)
    if edge_keys is None:
        return None
    return CompiledGraph.from_packed_keys(edge_keys, n_nodes=config.total_users)


def generate_trace(
    config: TraceConfig,
    cache_dir: Optional[Union[str, Path]] = None,
    registry=NULL_REGISTRY,
    cache_format: str = "mmap",
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
) -> WorkloadTrace:
    """Generate (or load from cache) a full :class:`WorkloadTrace`.

    The fault plan is parsed *first* (a malformed ``REPRO_TRACE_FAULTS``
    fails here, not mid-run), then the dataset cache is probed: a hit
    costs the read plus the cheap population pools (their substream is
    independent of the graph's).  Only on a miss does the full precompute
    run: the follow graph's edge keys, then the context, which reads
    follower counts off them.  Either way ``trace.graph`` is lazy: its
    first read compiles the CSR, from the miss's kept keys or from keys
    rebuilt off the seed after a hit.  ``cache_format`` picks
    the cache serialization (``"mmap"`` uncompressed mappable columns,
    the default, or ``"v2"`` gzipped columns); both store the identical
    dataset.

    ``run_dir`` / ``resume`` enable shard checkpointing — see
    :func:`generate_dataset` and :mod:`repro.parallel.checkpoint`.

    With the ``mmap`` cache format the streamed merge publishes its file
    directly as the cache entry (atomically, under the same temp-name
    discipline the cache sweeps) — there is no post-merge ``cache.put``
    copy, so the dataset is serialized exactly once.  ``v2`` is an
    explicit compression choice: the merged file stays in the run dir
    (or scratch) and ``put`` stores the compressed entry.
    """
    fault_plan_from_env()

    cache = None
    dataset: Optional[BroadcastDataset] = None
    if cache_dir is not None:
        cache = DatasetCache(cache_dir, fmt=cache_format)
        dataset = cache.get(config.cache_key())

    if dataset is not None:
        registry.counter("trace.cache_hits", "dataset cache hits").inc()
        # Pools draw from their own substream, so skipping the graph
        # changes nothing about them; the rest of the context is only
        # consumed by generation, which a hit bypasses.
        broadcaster_ids, viewer_ids = draw_pools(config)
        return WorkloadTrace(
            config=config,
            dataset=dataset,
            graph=lambda: _compile_graph(config),
            broadcaster_ids=broadcaster_ids,
            viewer_ids=viewer_ids,
        )

    if cache is not None:
        registry.counter("trace.cache_misses", "dataset cache misses").inc()

    graph_started = time.perf_counter()
    edge_keys = build_follow_graph(config)
    graph_seconds = time.perf_counter() - graph_started
    registry.gauge(
        "trace.graph_seconds", "wall seconds generating the follow graph's edges"
    ).set(graph_seconds)

    context_started = time.perf_counter()
    context = build_trace_context(config, edge_keys)
    registry.gauge(
        "trace.context_seconds", "wall seconds in precompute (graph + pools)"
    ).set(graph_seconds + (time.perf_counter() - context_started))

    merge_path = None
    if cache is not None and cache.fmt == "mmap":
        # The merged file IS the mmap entry.  ArrayFileWriter stages it as
        # `trace-<key>.cols.tmp<pid>`, which matches the cache's stale
        # temp sweep, and publishes with the same os.replace the cache
        # itself uses — the entry appears whole or not at all.
        merge_path = cache.path_for(config.cache_key())

    dataset = generate_dataset(
        config,
        context,
        registry=registry,
        run_dir=run_dir,
        resume=resume,
        merge_path=merge_path,
    )
    if cache is not None and merge_path is None:
        cache.put(config.cache_key(), dataset)

    return WorkloadTrace(
        config=config,
        dataset=dataset,
        graph=lambda: _compile_graph(config, edge_keys),
        broadcaster_ids=context.broadcaster_ids,
        viewer_ids=context.viewer_ids,
    )
