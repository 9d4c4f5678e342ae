"""The out-of-core streaming merge (:mod:`repro.parallel.merge`).

The contract under test: for every shards/workers choice, the streamed
merge's on-disk ``mmap``-format file is **byte-identical** to
``save_dataset_mapped`` of the in-memory oracle
(:func:`~repro.workload.trace.assemble_dataset_columns` over every day's
columns) — the file IS the cache entry, so nothing less than identity
will do.  Plus the edges the streaming path introduces: zero-row day
shards, crash-orphaned writer temps, and the re-key allocation skip in
the oracle.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.crawler.arrayfile import ArrayFileWriter
from repro.crawler.dataset import BroadcastColumns, BroadcastDataset
from repro.crawler.storage import DatasetCache, save_dataset_mapped
from repro.obs import MetricsRegistry, peak_rss_mb
from repro.parallel import generate as generate_module
from repro.parallel import generate_trace, stream_merge_shards
from repro.workload.trace import (
    TraceConfig,
    assemble_dataset_columns,
    build_follow_graph,
    build_trace_context,
    generate_day_columns,
)

SCALE = 0.0001
SEED = 17


@pytest.fixture(scope="module", autouse=True)
def _force_pool():
    """Let tiny workloads actually use worker pools (and nothing else)."""
    patcher = pytest.MonkeyPatch()
    patcher.setattr(generate_module, "MIN_BROADCASTS_PER_WORKER", 0)
    yield
    patcher.undo()


def _config(shards: int = 1, workers: int = 1) -> TraceConfig:
    return TraceConfig.periscope(scale=SCALE, seed=SEED, shards=shards, workers=workers)


def _oracle(config: TraceConfig) -> BroadcastDataset:
    """The in-memory merge of every day's columns."""
    context = build_trace_context(config, build_follow_graph(config))
    return assemble_dataset_columns(
        config, [generate_day_columns(context, day) for day in range(config.growth.days)]
    )


def _mapped_bytes(dataset: BroadcastDataset, path) -> bytes:
    save_dataset_mapped(dataset, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def reference_bytes(tmp_path_factory) -> bytes:
    """Ground truth: ``save_dataset_mapped`` of the in-memory oracle."""
    path = tmp_path_factory.mktemp("reference") / "oracle.cols"
    return _mapped_bytes(_oracle(_config()), path)


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("shards", [1, 4, 13])
def test_streamed_entry_byte_identical_across_matrix(
    shards, workers, reference_bytes, tmp_path
):
    config = _config(shards=shards, workers=workers)
    registry = MetricsRegistry()
    generate_trace(config, cache_dir=tmp_path, cache_format="mmap", registry=registry)
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["trace.merge_streamed"]["value"] == 1.0
    entry = DatasetCache(tmp_path, fmt="mmap").path_for(config.cache_key())
    assert entry.read_bytes() == reference_bytes


def test_run_dir_streamed_merge_file(tmp_path, reference_bytes):
    """With only a run dir, the merge publishes ``merged.cols`` there."""
    config = _config(shards=4)
    trace = generate_trace(config, run_dir=tmp_path / "run")
    assert (tmp_path / "run" / "merged.cols").read_bytes() == reference_bytes
    assert trace.dataset.broadcast_count > 0


def test_streamed_dataset_matches_in_memory_columns():
    """Not just file bytes: the returned mapped columns match too — even
    with no run dir or cache, where the merged file lived in a scratch
    dir that is already gone."""
    config = _config(shards=4, workers=2)
    memory = _oracle(config)
    streamed = generate_trace(config).dataset
    for field in (
        "broadcast_id",
        "broadcaster_id",
        "start_time",
        "viewer_indptr",
        "viewer_ids",
        "is_private",
    ):
        np.testing.assert_array_equal(
            getattr(streamed.columns, field), getattr(memory.columns, field)
        )


def test_zero_row_day_shards_merge_identically(tmp_path):
    """A scale small enough that early days generate no broadcasts at all
    must stream exactly like it assembles in memory (satellite a)."""
    config = TraceConfig.periscope(scale=0.00002, seed=SEED, shards=13, workers=1)
    memory = _oracle(config)
    present = np.unique(memory.columns.start_time.astype(np.int64) // 86400)
    assert len(present) < config.growth.days, "regression needs empty days"
    generate_trace(config, run_dir=tmp_path / "run")
    expected = _mapped_bytes(memory, tmp_path / "oracle.cols")
    assert (tmp_path / "run" / "merged.cols").read_bytes() == expected


def test_shards_out_of_day_order_rejected(tmp_path):
    """The copy checks ``start_time`` order as it streams: shards handed
    over out of day order raise, and nothing is published."""
    config = _config(shards=4)
    generate_trace(config, run_dir=tmp_path / "run")
    shards = sorted((tmp_path / "run").glob("shard-*.arrays"))
    with pytest.raises(ValueError, match="not sorted across shard day ranges"):
        stream_merge_shards(config, shards[::-1], tmp_path / "merged.cols")
    assert not list(tmp_path.glob("merged.cols*"))


def test_concat_of_no_batches():
    empty = BroadcastColumns.concat([], app_name="Periscope")
    assert len(empty) == 0 and empty.app_name == "Periscope"
    with pytest.raises(ValueError, match="no column batches"):
        BroadcastColumns.concat([])


def test_rekey_skipped_for_already_global_ids():
    """A single pre-keyed, pre-sorted batch passes through assemble
    untouched — no re-key allocation, same array object (satellite b)."""
    config = _config()
    zero = np.zeros(3, dtype=np.int64)
    batch = BroadcastColumns(
        app_name=config.app_name,
        broadcast_id=np.arange(1, 4, dtype=np.int64),
        broadcaster_id=np.array([7, 8, 9], dtype=np.int64),
        start_time=np.array([10.0, 20.0, 30.0]),
        duration_s=np.ones(3),
        web_views=zero,
        heart_count=zero,
        comment_count=zero,
        commenter_count=zero,
        is_private=np.zeros(3, dtype=bool),
        broadcaster_followers=zero,
        viewer_indptr=np.zeros(4, dtype=np.int64),
        viewer_ids=np.empty(0, dtype=np.int64),
    )
    dataset = assemble_dataset_columns(config, [batch])
    assert dataset.columns.broadcast_id is batch.broadcast_id


def test_dead_writer_temp_swept_live_kept(stale_temp_harness):
    """An ArrayFileWriter killed mid-append stages ``trace-<key>.cols.tmp<pid>``
    — the cache's existing sweep collects it; no entry ever exists."""
    key = _config().cache_key()
    root = stale_temp_harness(
        lambda root: DatasetCache(root, fmt="mmap"),
        dead_name=f"trace-{key}.cols.tmp{{pid}}",
        live_name=f"trace-{key}.cols.live.tmp{{pid}}",
    )
    cache = DatasetCache(root, fmt="mmap")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_writer_crash_mid_append_leaves_nothing(tmp_path):
    """An exception mid-stream aborts the writer: no file, no temp."""
    target = tmp_path / "merged.cols"
    with pytest.raises(RuntimeError, match="boom"):
        with ArrayFileWriter(target, [("x", "<i8", (10,))]) as writer:
            writer.append("x", np.arange(3, dtype=np.int64))
            raise RuntimeError("boom")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_explicit_cache_format_survives_streaming(tmp_path):
    """``cache_format="v2"`` is an explicit compression choice: the
    merge still streams, but the entry is stored via ``put`` in the
    requested format, not hijacked into an mmap file."""
    config = _config(shards=4)
    registry = MetricsRegistry()
    generate_trace(config, cache_dir=tmp_path, cache_format="v2", registry=registry)
    assert registry.snapshot()["gauges"]["trace.merge_streamed"]["value"] == 1.0
    cache = DatasetCache(tmp_path, fmt="v2")
    assert cache.path_for(config.cache_key()).exists()
    assert not cache.path_for(config.cache_key(), fmt="mmap").exists()
    assert cache.get(config.cache_key()) is not None


def test_peak_rss_observable():
    rss = peak_rss_mb()
    if sys.platform.startswith(("linux", "darwin")):
        assert rss is not None and rss > 0
    else:  # pragma: no cover - non-POSIX CI only
        assert rss is None
