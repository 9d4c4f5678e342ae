"""Dataset persistence.

The paper released parts of its measurement datasets; this module gives
the reproduction the same capability: broadcast datasets round-trip
through gzip-compressed JSONL (one record per line, metadata on the first
line — the release format), through a binary columnar layout (v2: one
JSON header line followed by the raw little-endian column arrays,
gzipped), or through the uncompressed, memory-mappable ``mmap`` column
file.

Serialization is byte-deterministic in every format (the gzip header's
mtime is pinned to zero and the column formats write fixed-dtype
little-endian buffers): the same dataset always produces the same bytes,
which is what the sharded-generation determinism tests and the on-disk
:class:`DatasetCache` rely on.
"""

from __future__ import annotations

import dataclasses
import gzip
import io
import json
import re
import zlib
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.crawler.arrayfile import (
    atomic_output,
    read_arrays,
    sweep_stale_temps,
    write_arrays,
)
from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
    column_schema,
)

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

_COLUMNS_FORMAT_VERSION = 2

#: JSONL record keys: :class:`BroadcastRecord`'s fields, in declaration order.
_RECORD_FIELDS = tuple(field.name for field in dataclasses.fields(BroadcastRecord))


def _record_to_json(record: BroadcastRecord) -> dict:
    payload = {name: getattr(record, name) for name in _RECORD_FIELDS}
    payload["viewer_ids"] = record.viewer_ids.tolist()
    return payload


def _record_from_json(payload: dict) -> BroadcastRecord:
    return BroadcastRecord(*map(payload.__getitem__, _RECORD_FIELDS))


def dataset_to_bytes(dataset: BroadcastDataset) -> bytes:
    """Serialize a dataset to deterministic gzip-JSONL bytes.

    The gzip mtime is pinned to 0, so equal datasets always serialize to
    equal bytes — the byte-identity guarantee the parallel-generation
    tests assert.
    """
    header = {
        "format_version": _FORMAT_VERSION,
        "app_name": dataset.app_name,
        "days": dataset.days,
        "record_count": len(dataset),
    }
    raw = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as binary:
        binary.write((json.dumps(header) + "\n").encode("utf-8"))
        for record in dataset:
            binary.write((json.dumps(_record_to_json(record)) + "\n").encode("utf-8"))
    return raw.getvalue()


def dataset_from_bytes(data: bytes, source: str = "<bytes>") -> BroadcastDataset:
    """Inverse of :func:`dataset_to_bytes`."""
    with gzip.open(io.BytesIO(data), "rt", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{source}: empty dataset file")
        header = json.loads(header_line)
        version = header.get("format_version")
        if version != _FORMAT_VERSION:
            raise ValueError(f"{source}: unsupported format version {version}")
        records = [
            _record_from_json(json.loads(line)) for line in handle if line.strip()
        ]
    dataset = BroadcastDataset.from_records(header["app_name"], header["days"], records)
    expected = header.get("record_count")
    if expected is not None and expected != len(dataset):
        raise ValueError(
            f"{source}: truncated dataset ({len(dataset)} of {expected} records)"
        )
    return dataset


def dataset_to_columnar_bytes(dataset: BroadcastDataset) -> bytes:
    """Serialize a dataset to the deterministic v2 binary columnar format.

    Layout: one JSON header line, then each column of
    :data:`~repro.crawler.dataset.COLUMN_LAYOUT` as raw little-endian
    bytes, all gzipped with mtime pinned to 0.
    """
    columns = dataset.columns
    header = {
        "format_version": _COLUMNS_FORMAT_VERSION,
        "app_name": dataset.app_name,
        "days": dataset.days,
        "record_count": len(columns),
        "viewer_count": len(columns.viewer_ids),
    }
    raw = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as binary:
        binary.write((json.dumps(header) + "\n").encode("utf-8"))
        for array in columns.arrays().values():
            binary.write(array.tobytes())
    return raw.getvalue()


def dataset_from_columnar_bytes(data: bytes, source: str = "<bytes>") -> BroadcastDataset:
    """Inverse of :func:`dataset_to_columnar_bytes`."""
    payload = gzip.decompress(data)
    newline = payload.find(b"\n")
    if newline < 0:
        raise ValueError(f"{source}: empty dataset file")
    header = json.loads(payload[:newline])
    version = header.get("format_version")
    if version != _COLUMNS_FORMAT_VERSION:
        raise ValueError(f"{source}: unsupported format version {version}")
    record_count = int(header["record_count"])
    viewer_count = int(header["viewer_count"])

    offset = newline + 1
    arrays: dict[str, np.ndarray] = {}
    for field, dtype, (length,) in column_schema(record_count, viewer_count):
        nbytes = length * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ValueError(f"{source}: truncated dataset (column {field!r})")
        arrays[field] = np.frombuffer(
            payload, dtype=dtype, count=length, offset=offset
        ).copy()
        offset += nbytes
    if offset != len(payload):
        raise ValueError(f"{source}: trailing bytes after columns")
    columns = BroadcastColumns(app_name=header["app_name"], **arrays)
    return BroadcastDataset(header["app_name"], header["days"], columns)


def save_dataset(dataset: BroadcastDataset, path: PathLike) -> None:
    """Write a dataset as gzip JSONL: header line, then one record/line."""
    Path(path).write_bytes(dataset_to_bytes(dataset))


def load_dataset(path: PathLike) -> BroadcastDataset:
    """Read a dataset written by :func:`save_dataset`."""
    return dataset_from_bytes(Path(path).read_bytes(), source=str(path))


_CACHE_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,100}$")

_MAPPED_FORMAT = "broadcast-dataset"


def mapped_dataset_meta(
    app_name: str, days: int, record_count: int, viewer_count: int
) -> dict:
    """The ``mmap``-format header metadata for a dataset of these counts.

    Shared between :func:`save_dataset_mapped` and the streaming merge
    (:mod:`repro.parallel.merge`) so a streamed file carries exactly the
    metadata a monolithic save would — a requirement for the two paths'
    byte-identity.
    """
    return {
        "format": _MAPPED_FORMAT,
        "format_version": _COLUMNS_FORMAT_VERSION,
        "app_name": app_name,
        "days": days,
        "record_count": record_count,
        "viewer_count": viewer_count,
    }


def save_dataset_mapped(dataset: BroadcastDataset, path: PathLike) -> None:
    """Write a dataset as an uncompressed, memory-mappable column file.

    Same columns as v2, but raw
    page-aligned little-endian columns behind a JSON header line instead
    of a gzip stream — :func:`load_dataset_mapped` opens it zero-copy
    with ``np.memmap``, so a paper-scale dataset streams from the page
    cache instead of being inflated into RAM.  Deterministic bytes, like
    the other formats.
    """
    columns = dataset.columns
    write_arrays(
        path,
        columns.arrays(),
        meta=mapped_dataset_meta(
            dataset.app_name, dataset.days, len(columns), len(columns.viewer_ids)
        ),
    )


def load_dataset_mapped(path: PathLike) -> BroadcastDataset:
    """Open a :func:`save_dataset_mapped` file as a mapped-column dataset.

    The returned dataset's columns are read-only ``np.memmap`` views; on
    POSIX they stay valid even if the file is unlinked afterwards.
    """
    arrays, meta = read_arrays(path)
    if meta.get("format") != _MAPPED_FORMAT:
        raise ValueError(f"{path}: not a mapped broadcast dataset")
    version = meta.get("format_version")
    if version != _COLUMNS_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    record_count, viewer_count = int(meta["record_count"]), int(meta["viewer_count"])
    schema = column_schema(record_count, viewer_count)
    if set(arrays) != {field for field, _, _ in schema}:
        raise ValueError(f"{path}: column set mismatch")
    columns = BroadcastColumns(app_name=meta["app_name"], **arrays)
    if len(columns) != record_count:
        raise ValueError(f"{path}: truncated dataset (record count mismatch)")
    if len(columns.viewer_ids) != viewer_count:
        raise ValueError(f"{path}: truncated dataset (viewer count mismatch)")
    return BroadcastDataset(meta["app_name"], meta["days"], columns)


def _save_v2(dataset: BroadcastDataset, path: Path) -> None:
    path.write_bytes(dataset_to_columnar_bytes(dataset))


def _load_v2(path: Path) -> BroadcastDataset:
    return dataset_from_columnar_bytes(path.read_bytes(), source=str(path))


#: Cache serialization formats: file suffix, writer(dataset, path),
#: reader(path).  ``mmap`` entries are opened zero-copy via ``np.memmap``.
_CACHE_FORMATS = {
    "v2": (".cols.gz", _save_v2, _load_v2),
    "mmap": (".cols", save_dataset_mapped, load_dataset_mapped),
}


class DatasetCache:
    """A content-addressed on-disk cache of generated broadcast datasets.

    Keys come from :meth:`repro.workload.trace.TraceConfig.cache_key` — a
    hash of everything that determines the generated data (and nothing
    that does not, like worker counts) — so figure experiments across
    processes reuse one generation.  Writes are atomic (temp file +
    ``os.replace``) so a crashed run never leaves a truncated entry that
    a later run would trip over; temp files orphaned by a killed writer
    are swept on cache construction (only when their recorded pid is no
    longer alive, so concurrent writers are never disturbed).

    ``fmt`` picks the serialization for new entries: ``"mmap"`` (default)
    is uncompressed page-aligned columns opened zero-copy with
    ``np.memmap``, ``"v2"`` the same columns gzipped — about a third of
    the size on disk, paid for with a slow compressed write.  Each cache
    reads entries the other format wrote: on a miss (or a corrupt entry)
    in its own format, ``get`` falls through to the other format's file.
    An entry whose embedded format version does not match its reader is
    treated as a miss and removed, like any other corrupt entry.
    """

    def __init__(self, root: PathLike, fmt: str = "mmap") -> None:
        if fmt not in _CACHE_FORMATS:
            raise ValueError(
                f"unknown cache format {fmt!r}; expected one of {sorted(_CACHE_FORMATS)}"
            )
        self.root = Path(root)
        self.fmt = fmt
        self.root.mkdir(parents=True, exist_ok=True)
        sweep_stale_temps(self.root, "trace-*.tmp*")

    def path_for(self, key: str, fmt: Optional[str] = None) -> Path:
        if not _CACHE_KEY_RE.match(key):
            raise ValueError(f"invalid cache key {key!r}")
        suffix, _, _ = _CACHE_FORMATS[fmt or self.fmt]
        return self.root / f"trace-{key}{suffix}"

    def _formats_for(self, key: str):
        """(fmt, path) probe order: own format first, then the other."""
        for fmt in dict.fromkeys((self.fmt, *sorted(_CACHE_FORMATS))):
            yield fmt, self.path_for(key, fmt)

    def get(self, key: str) -> Optional[BroadcastDataset]:
        """The cached dataset for ``key``, or ``None`` on a miss.

        A corrupt entry is treated as a miss and removed — and the probe
        *falls through* to the other format's file, so a corrupt entry
        in the preferred format never masks a valid one in the fallback
        format.  Corruption covers a truncated gzip stream (``EOFError``
        — e.g. a file cut mid-byte by a non-atomic writer or a full
        disk), corrupted deflate data (``zlib.error``), a bad gzip header
        (``gzip.BadGzipFile``, an ``OSError``), malformed or incomplete
        payloads (``ValueError``/``KeyError``), and a format version the
        reader does not understand.
        """
        for fmt, path in self._formats_for(key):
            if not path.exists():
                continue
            _, _, load = _CACHE_FORMATS[fmt]
            try:
                return load(path)
            except (ValueError, OSError, EOFError, zlib.error, KeyError):
                path.unlink(missing_ok=True)
                continue
        return None

    def put(self, key: str, dataset: BroadcastDataset) -> Path:
        """Store ``dataset`` under ``key``; returns the entry's path.

        The write is atomic, and the temp file is removed even when
        serialization fails mid-write.
        """
        path = self.path_for(key)
        _, save, _ = _CACHE_FORMATS[self.fmt]
        with atomic_output(path) as temp:
            save(dataset, temp)
        return path

    def __contains__(self, key: str) -> bool:
        """True only for keys :meth:`get` would actually return.

        Aligned with ``get`` semantics — the entry is fully loaded (and a
        corrupt file removed) rather than merely stat'ed, so callers can
        never skip regeneration on a poisoned key.  Use
        :meth:`path_for(...).exists() <path_for>` for a cheap
        existence-only probe.
        """
        return self.get(key) is not None
