"""Out-of-core streaming merge: shard files flow straight into the
``mmap`` cache format.

An in-memory merge would hold every shard's columns in RAM at once — at
the paper's full scale (~19.6M broadcasts / 705M views) the viewer CSR
alone is ~5.6 GB of int64, and a cache write would then serialize a
second full copy.  This module is a sequential file-to-file copy whose
peak heap is one bounded window (:data:`STREAM_CHUNK_BYTES`), regardless
of dataset size; it is the only way
:func:`repro.parallel.generate.generate_dataset` builds a dataset.

Why a *sequential* merge is the *sorted* merge: shards are contiguous
day ranges, rows within a day are sorted by ``start_time`` (ties broken
by day-local ID, which equals storage order), and day offsets never
cross a day boundary — so concatenating shards in shard order **is** the
global ``(start_time, id)`` order that the tests' in-memory oracle
(:func:`repro.workload.trace.assemble_dataset_columns`) produces with its
lexsort.  Only two per-shard fixups remain, both computable from a
running scalar:

* ``broadcast_id`` — globally re-keyed ``1..N``, so the column is simply
  *generated* as ranges (never even read from the shards);
* ``viewer_indptr`` — each day's CSR offsets shifted by the running
  viewer count (one leading ``0``, then every day's ``indptr[1:]``).

Everything else is a raw block copy.  The output is written with
:class:`~repro.crawler.arrayfile.ArrayFileWriter` — checksums accumulate
incrementally and the file publishes atomically — and is **byte-identical**
to ``save_dataset_mapped`` of the in-memory oracle (test-enforced for
every shards/workers choice), which is what lets
:func:`repro.parallel.generate.generate_trace` publish the merge output
directly *as* the dataset-cache entry and skip ``put`` entirely.

Reads go through bounded ``file.read`` windows rather than ``np.memmap``
on purpose: resident file-backed mappings count toward RSS, so a mapped
merge would look exactly like an in-memory one to the
``trace.peak_rss_mb`` gate in ``scripts/check.sh bench``.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence, Union

import numpy as np

from repro.crawler.arrayfile import (
    ArrayEntry,
    ArrayFileWriter,
    read_array_index,
    write_arrays,
)
from repro.crawler.dataset import BroadcastColumns, BroadcastDataset, column_schema
from repro.crawler.storage import load_dataset_mapped, mapped_dataset_meta
from repro.workload.trace import TraceConfig

__all__ = ["STREAM_CHUNK_BYTES", "stream_merge_shards", "write_shard_file"]

PathLike = Union[str, Path]

#: Upper bound on one copy window's bytes — the merge's working set is a
#: small multiple of this (source buffer + dtype-converted view), never
#: a function of dataset size.  32 MiB keeps syscall overhead negligible
#: while staying far below a single paper-scale shard.
STREAM_CHUNK_BYTES = 32 << 20


def _day_array_name(position: int, field: str) -> str:
    """A shard file's array of ``field`` for its ``position``-th day."""
    return f"{position:03d}/{field}"


def write_shard_file(path: PathLike, day_columns: Sequence[BroadcastColumns]) -> None:
    """Write one shard's day batches in the layout the merge reads.

    Each day's columns become ``NNN/<field>`` arrays (``NNN`` the day's
    position in the shard), and the meta records ``n_days``.
    """
    write_arrays(
        path,
        {
            _day_array_name(position, field): array
            for position, columns in enumerate(day_columns)
            for field, array in columns.arrays().items()
        },
        meta={"n_days": len(day_columns)},
    )


def _shard_day_entries(
    path: Path, field: str, index: dict[str, ArrayEntry], n_days: int
) -> list[ArrayEntry]:
    """``field``'s per-day entries of one shard file, in day order."""
    entries = []
    for position in range(n_days):
        name = _day_array_name(position, field)
        entry = index.get(name)
        if entry is None:
            raise ValueError(f"{path}: shard file is missing array {name!r}")
        entries.append(entry)
    return entries


def _windows(handle: BinaryIO, entry: ArrayEntry) -> Iterator[np.ndarray]:
    """``entry``'s elements as bounded, non-empty windows, in order."""
    itemsize = entry.dtype.itemsize
    window = max(itemsize, STREAM_CHUNK_BYTES // itemsize * itemsize)
    handle.seek(entry.offset)
    remaining = entry.nbytes
    while remaining > 0:
        take = min(window, remaining)
        buffer = handle.read(take)
        if len(buffer) != take:
            raise ValueError(f"shard array {entry.name!r} truncated mid-copy")
        yield np.frombuffer(buffer, dtype=entry.dtype)
        remaining -= take


def _check_ascending(entry: ArrayEntry, values: np.ndarray, floor: float) -> float:
    """The window's last value, once ``values`` are checked never to fall
    below ``floor`` (the previous window's last value) or to decrease."""
    if values[0] < floor or np.any(values[1:] < values[:-1]):
        raise ValueError(
            f"{entry.name!r} is not sorted across shard day ranges; the "
            "sequential streaming merge requires sorted day shards "
            "(generator invariant violated)"
        )
    return float(values[-1])


def _append_ranges(writer: ArrayFileWriter, field: str, start: int, count: int) -> None:
    """Append ``start .. start+count-1`` as int64, in bounded windows."""
    window = max(1, STREAM_CHUNK_BYTES // 8)
    position = start
    end = start + count
    while position < end:
        take = min(window, end - position)
        writer.append(field, np.arange(position, position + take, dtype=np.int64))
        position += take


def stream_merge_shards(
    config: TraceConfig,
    shard_paths: Sequence[PathLike],
    out_path: PathLike,
) -> BroadcastDataset:
    """Merge shard files into one ``mmap``-format dataset file, out of core.

    ``shard_paths`` must be the run's shard files in shard (= day) order —
    ``shard-NNNNN.arrays`` files from a run dir or a scratch dir.  The merged file is staged and published atomically at
    ``out_path``; the returned dataset attaches it as read-only
    ``np.memmap`` views (valid even if ``out_path`` is later unlinked, so
    scratch-directory merges work).

    The copy cross-checks the sortedness invariant the sequential merge
    rests on (non-decreasing ``start_time`` across every window boundary)
    while the bytes stream past — it costs nothing extra to read and
    turns a violated generator invariant into a hard error instead of a
    silently mis-sorted dataset.
    """
    paths = [Path(path) for path in shard_paths]
    if not paths:
        raise ValueError("no shard files to merge")

    # Pass 1 — headers only: learn every day's row/viewer counts, so the
    # complete output schema (and thus the header) is known up front.
    shards: list[tuple[Path, dict[str, ArrayEntry], int]] = []
    total_days = 0
    total_rows = 0
    total_viewers = 0
    for path in paths:
        index, meta = read_array_index(path)
        n_days = int(meta["n_days"])
        for entry in _shard_day_entries(path, "broadcast_id", index, n_days):
            total_rows += entry.shape[0]
        for entry in _shard_day_entries(path, "viewer_ids", index, n_days):
            total_viewers += entry.shape[0]
        shards.append((path, index, n_days))
        total_days += n_days
    if total_days != config.growth.days:
        raise ValueError(
            f"shard files cover {total_days} days, config expects "
            f"{config.growth.days}; pass every shard of the run in order"
        )

    schema = column_schema(total_rows, total_viewers)
    writer = ArrayFileWriter(
        out_path,
        schema,
        meta=mapped_dataset_meta(
            config.app_name, config.growth.days, total_rows, total_viewers
        ),
    )

    # Pass 2 — one sequential sweep per column (the output file is laid
    # out column-major), every shard held open once.
    try:
        with ExitStack() as stack:
            handles = [stack.enter_context(path.open("rb")) for path, _, _ in shards]
            last_start_time = -np.inf
            for field, _dtype, _shape in schema:
                if field == "broadcast_id":
                    # Generated, not copied: the global re-key is just 1..N.
                    _append_ranges(writer, field, 1, total_rows)
                    continue
                if field == "viewer_indptr":
                    writer.append(field, np.zeros(1, dtype=np.int64))
                viewer_base = 0
                for handle, (path, index, n_days) in zip(handles, shards):
                    for entry in _shard_day_entries(path, field, index, n_days):
                        if field == "viewer_indptr":
                            # Day-local CSR offsets, shifted by the viewers
                            # already merged; the day's own leading 0 is
                            # dropped (the global column has exactly one).
                            # One day's offsets are bounded by its row count.
                            day_indptr = np.concatenate(list(_windows(handle, entry)))
                            writer.append(field, day_indptr[1:] + np.int64(viewer_base))
                            viewer_base += int(day_indptr[-1])
                            continue
                        for values in _windows(handle, entry):
                            if field == "start_time":
                                last_start_time = _check_ascending(
                                    entry, values, last_start_time
                                )
                            writer.append(field, values)
        merged_path = writer.finalize()
    except BaseException:
        writer.abort()
        raise
    return load_dataset_mapped(merged_path)
