"""Page-aligned, memory-mappable array bundles (the zero-copy format).

One tiny on-disk format serves three jobs:

* shipping the frozen :class:`~repro.workload.trace.ShardContext` to
  generation workers (:mod:`repro.parallel.generate`) — the parent
  writes the context's arrays once and every worker attaches read-only
  ``np.memmap`` views instead of unpickling megabyte buffers through
  ``initargs``,
* shard output — every shard's day columns go to a per-shard file that
  the streaming merge (:mod:`repro.parallel.merge`) reads, so the
  process boundary carries a path, not a pickle of every column,
* the uncompressed ``mmap`` dataset-cache format and the follow-graph
  cache (:mod:`repro.crawler.storage`, :mod:`repro.parallel.generate`),
  which let paper-scale datasets stream from disk instead of living in
  RAM.

Layout: one JSON header line (format tag, page size, per-array name /
dtype / shape / relative offset, caller metadata), space-padded to a
page boundary, followed by each array's raw little-endian bytes at
page-aligned offsets, followed by a checksum *footer* line — a JSON
record of each block's CRC-32 — itself padded to a page boundary.  The
footer is what lets the resumable-generation layer
(:mod:`repro.parallel.checkpoint`) tell a valid shard file from one a
crashed writer or a flaky disk corrupted: ``read_arrays(verify=True)``
recomputes every block checksum against it.  A header without a
``footer_size`` is rejected, so a file that verifies really was checked.

Writes are deterministic — no timestamps, no environment — so identical
arrays always produce identical files, which the byte-identity suite
relies on.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

PathLike = Union[str, Path]

#: Alignment for the header block and every array block.  4 KiB covers
#: every mainstream page size except Apple Silicon's 16 KiB — alignment
#: is a performance nicety, not a correctness requirement, because
#: ``np.memmap`` re-aligns offsets to ``mmap.ALLOCATIONGRANULARITY``.
PAGE_SIZE = 4096

ARRAY_FILE_VERSION = 1
_MAGIC = "repro-arrays"
_FOOTER_MAGIC = "repro-arrays-footer"


def _aligned(n: int) -> int:
    return (n + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def _padded_json_line(payload: dict, size: Optional[int] = None) -> bytes:
    """Canonical JSON, space-padded to a page boundary, newline-terminated.

    Readers take the first line; JSON ignores the trailing spaces, and the
    next section starts exactly at ``len(line)``.  ``size`` pads to an
    explicit reserved length instead (used by :class:`ArrayFileWriter`,
    whose footer length must be declared before the checksums exist).
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    if size is None:
        size = _aligned(len(encoded) + 1)
    if len(encoded) + 1 > size:
        raise ValueError(
            f"JSON line ({len(encoded) + 1} bytes) exceeds its reserved {size} bytes"
        )
    return encoded + b" " * (size - len(encoded) - 1) + b"\n"


@contextmanager
def atomic_output(path: PathLike) -> Iterator[Path]:
    """Stage a write as ``<path>.tmp<pid>``, publish it with ``os.replace``.

    The one atomic-publish discipline every on-disk artifact in the repo
    uses (dataset-cache entries, the follow-graph cache, checkpointed
    shard files, streamed merges): the caller writes the yielded temp
    path; on a clean exit it is renamed over ``path`` in one step, and on
    any exit the temp is removed — a crashed writer can never leave a
    plausible-looking final file, only a ``.tmp<pid>`` leftover that
    :func:`repro.crawler.storage.sweep_stale_temps` reclaims once the
    writer's pid is gone.
    """
    path = Path(path)
    temp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        yield temp
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _disk_dtype(dtype: Union[str, np.dtype]) -> np.dtype:
    """The on-disk form of ``dtype``: little-endian, never objects."""
    dtype = np.dtype(dtype)
    if dtype.hasobject:
        raise ValueError(f"cannot store object arrays (dtype {dtype})")
    return dtype.newbyteorder("<") if dtype.byteorder == ">" else dtype


def write_arrays(
    path: PathLike,
    arrays: Mapping[str, np.ndarray],
    meta: Optional[dict] = None,
) -> None:
    """Write named arrays as one page-aligned, mappable file.

    Insertion order of ``arrays`` is preserved; the write is
    byte-deterministic for fixed inputs, and the file ends with the
    per-block CRC-32 checksum footer that ``read_arrays(verify=True)``
    validates against.  This *is* the incremental :class:`ArrayFileWriter`
    fed whole arrays, so monolithic and streamed writes of the same data
    are byte-identical by construction.
    """
    arrays = {str(name): np.ascontiguousarray(array) for name, array in arrays.items()}
    schema = [(name, array.dtype, array.shape) for name, array in arrays.items()]
    with ArrayFileWriter(path, schema, meta=meta) as writer:
        for name, array in arrays.items():
            writer.append(name, array)


@dataclass(frozen=True)
class _ArraySpec:
    """One declared array in an :class:`ArrayFileWriter` schema."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


class ArrayFileWriter:
    """Incremental :func:`write_arrays`: declare the schema, append blocks.

    The full schema — every array's name, dtype, and *final* shape — must
    be known up front (the header comes first in the file), but each
    array's data may then arrive in any number of leading-axis chunks
    across calls, in declared order.  This is what lets the streaming
    merge (:mod:`repro.parallel.merge`) build a paper-scale dataset file
    while holding only one bounded window of it in memory: per-array
    CRC-32 checksums accumulate incrementally (``zlib.crc32`` composes
    over concatenation), so the finished file — header, page-aligned
    blocks, checksum footer — is byte-identical to a monolithic
    :func:`write_arrays` of the same data.

    Output is staged as ``<path>.tmp<pid>`` and published atomically by
    :meth:`finalize` (the :func:`atomic_output` discipline); a writer
    abandoned mid-append — process crash included — never leaves a
    partial final file, and the temp is reclaimed by the stale-temp
    sweep once the writer's pid is gone.  As a context manager, a clean
    exit finalizes and an exception aborts.

    One caveat on byte identity: the footer's length is reserved before
    the checksums exist (sized for maximum-width CRCs), so a schema whose
    footer JSON straddles a page boundary within that reserve could pad
    one page larger than the monolithic writer would.  ``write_arrays``
    itself routes through this class, so the two paths cannot drift for
    any schema.
    """

    def __init__(
        self,
        path: PathLike,
        schema: Sequence[tuple[str, Union[str, np.dtype], Sequence[int]]],
        meta: Optional[dict] = None,
    ) -> None:
        if not schema:
            raise ValueError("array-file schema is empty")
        self.path = Path(path)
        self._specs: list[_ArraySpec] = []
        self._positions: dict[str, int] = {}  # schema position of each name
        entries = []
        offset = 0
        for name, dtype, shape in schema:
            name = str(name)
            if name in self._positions:
                raise ValueError(f"duplicate array {name!r} in schema")
            self._positions[name] = len(self._specs)
            dtype = _disk_dtype(dtype)
            spec = _ArraySpec(name, dtype, tuple(int(dim) for dim in shape))
            self._specs.append(spec)
            entries.append(
                {
                    "name": name,
                    "dtype": dtype.str,
                    "shape": list(spec.shape),
                    "offset": offset,
                }
            )
            offset += _aligned(spec.nbytes)

        # The footer must fit checksums of any value, so its line length
        # is reserved using maximum-width (10-digit) CRC placeholders.
        self._footer_size = len(
            _padded_json_line(
                {"format": _FOOTER_MAGIC, "crc32": {s.name: 0xFFFFFFFF for s in self._specs}}
            )
        )
        header = {
            "format": _MAGIC,
            "format_version": ARRAY_FILE_VERSION,
            "page_size": PAGE_SIZE,
            "data_size": offset,
            "meta": meta or {},
            "arrays": entries,
            "footer_size": self._footer_size,
        }
        self._temp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        self._handle = open(self._temp, "wb")
        self._handle.write(_padded_json_line(header))
        self._index = 0  # position in the schema of the array being appended
        self._written = 0  # data bytes of that array written so far
        self._crc = 0
        self._checksums: dict[str, int] = {}
        self._finalized = False

    # -- appending -----------------------------------------------------

    def _require_open(self) -> None:
        if self._handle is None:
            raise ValueError(f"{self.path}: writer is closed")

    def _close_block(self) -> None:
        """Seal the current array: check completeness, pad, record its CRC."""
        spec = self._specs[self._index]
        if self._written != spec.nbytes:
            raise ValueError(
                f"{self.path}: array {spec.name!r} incomplete "
                f"({self._written} of {spec.nbytes} bytes appended)"
            )
        self._handle.write(b"\x00" * (_aligned(spec.nbytes) - spec.nbytes))
        self._checksums[spec.name] = self._crc
        self._index += 1
        self._written = 0
        self._crc = 0

    def append(self, name: str, chunk: np.ndarray) -> None:
        """Append a leading-axis chunk of array ``name``.

        Arrays must be appended in schema order; moving to a later name
        seals every array in between (legal only when they are complete —
        zero-length arrays complete vacuously and may be skipped
        entirely).  The chunk is converted to the declared dtype if
        needed.
        """
        self._require_open()
        position = self._positions.get(str(name), -1)
        if position < self._index:
            raise ValueError(
                f"{self.path}: array {name!r} is not appendable "
                f"(not in the schema, or already sealed)"
            )
        while self._index < position:
            self._close_block()
        spec = self._specs[self._index]
        chunk = np.ascontiguousarray(chunk)
        if chunk.dtype != spec.dtype:
            chunk = chunk.astype(spec.dtype)
        if chunk.ndim != len(spec.shape) or chunk.shape[1:] != spec.shape[1:]:
            raise ValueError(
                f"{self.path}: chunk shape {chunk.shape} does not extend "
                f"array {spec.name!r} of shape {spec.shape} along axis 0"
            )
        if self._written + chunk.nbytes > spec.nbytes:
            raise ValueError(
                f"{self.path}: array {spec.name!r} overflows its declared "
                f"shape {spec.shape} ({self._written + chunk.nbytes} > {spec.nbytes} bytes)"
            )
        self._crc = zlib.crc32(chunk, self._crc)
        self._handle.write(chunk)
        self._written += chunk.nbytes

    # -- lifecycle -----------------------------------------------------

    def finalize(self) -> Path:
        """Seal remaining arrays, write the checksum footer, publish.

        Returns the final path.  Raises ``ValueError`` — leaving no file
        behind — if any declared array is incomplete.
        """
        self._require_open()
        try:
            while self._index < len(self._specs):
                self._close_block()
            self._handle.write(
                _padded_json_line(
                    {"format": _FOOTER_MAGIC, "crc32": self._checksums},
                    size=self._footer_size,
                )
            )
            self._handle.flush()
            self._handle.close()
            self._handle = None
            os.replace(self._temp, self.path)
            self._finalized = True
        finally:
            if not self._finalized:
                self.abort()
        return self.path

    def abort(self) -> None:
        """Discard the write: close the handle, remove the temp file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if not self._finalized:
            self._temp.unlink(missing_ok=True)

    def __enter__(self) -> "ArrayFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._finalized:
                self.finalize()
        else:
            self.abort()


def read_arrays(path: PathLike, verify: bool = False) -> tuple[dict[str, np.ndarray], dict]:
    """Map a :func:`write_arrays` file back as read-only array views.

    Returns ``(arrays, meta)``.  Arrays are ``np.memmap`` views (zero
    copy); on POSIX they stay valid even if the file is later unlinked.
    Raises ``ValueError`` on any structural mismatch — wrong magic or
    version, truncation, or trailing bytes.

    ``verify=True`` additionally recomputes every block's CRC-32 against
    the checksum footer and raises ``ValueError`` naming the first
    corrupt array — the probe resumable generation runs before trusting
    a checkpointed shard file.  It costs a full read of the data, so the
    default (mapping-only) path never pays it.
    """
    path = Path(path)
    header, data_start = _load_header(path)
    data_end = data_start + int(header["data_size"])

    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        if dtype.hasobject:
            raise ValueError(f"{path}: refusing object dtype {entry['dtype']!r}")
        shape = tuple(int(dim) for dim in entry["shape"])
        count = math.prod(shape)
        start = data_start + int(entry["offset"])
        if start + count * dtype.itemsize > data_end:
            raise ValueError(f"{path}: array {entry['name']!r} overruns the file")
        if count == 0:
            arrays[entry["name"]] = np.empty(shape, dtype=dtype)
        else:
            arrays[entry["name"]] = np.memmap(
                path, dtype=dtype, mode="r", offset=start, shape=shape
            )

    if verify:
        footer = _read_footer(path, data_end, int(header["footer_size"]))
        _verify_checksums(path, arrays, footer)
    return arrays, header.get("meta", {})


def _load_header(path: Path) -> tuple[dict, int]:
    """Parse and structurally validate a file's header line.

    Returns ``(header, data_start)``; checks magic, version, that a
    checksum footer is declared, and that the file's size matches header
    + data + footer exactly (truncation and trailing garbage are both
    errors).
    """
    with path.open("rb") as handle:
        header_line = handle.readline()
    if not header_line.endswith(b"\n"):
        raise ValueError(f"{path}: truncated array-file header")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: malformed array-file header: {error}") from None
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    if header.get("format_version") != ARRAY_FILE_VERSION:
        raise ValueError(
            f"{path}: unsupported array-file version {header.get('format_version')!r}"
        )
    if "footer_size" not in header:
        raise ValueError(f"{path}: array-file header declares no checksum footer")
    data_start = len(header_line)
    expected = data_start + int(header["data_size"]) + int(header["footer_size"])
    actual = path.stat().st_size
    if actual < expected:
        raise ValueError(f"{path}: truncated array file ({actual} < {expected} bytes)")
    if actual > expected:
        raise ValueError(f"{path}: trailing bytes after arrays ({actual} > {expected})")
    return header, data_start


@dataclass(frozen=True)
class ArrayEntry:
    """One array's location inside a file, from the header alone."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int  # absolute byte offset of the block in the file

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize


def read_array_index(path: PathLike) -> tuple[dict[str, ArrayEntry], dict]:
    """Scan a file's header without mapping or reading any array data.

    Returns ``({name: ArrayEntry}, meta)`` — shapes, dtypes, and absolute
    offsets only, one page read per file.  This is how the streaming
    merge plans a whole run's output (total lengths, per-day windows)
    before touching a byte of shard data.  The same structural checks as
    :func:`read_arrays` apply (magic, version, exact file size).
    """
    path = Path(path)
    header, data_start = _load_header(path)
    data_end = data_start + int(header["data_size"])
    entries: dict[str, ArrayEntry] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(entry["dtype"])
        if dtype.hasobject:
            raise ValueError(f"{path}: refusing object dtype {entry['dtype']!r}")
        shape = tuple(int(dim) for dim in entry["shape"])
        offset = data_start + int(entry["offset"])
        if offset + math.prod(shape) * dtype.itemsize > data_end:
            raise ValueError(f"{path}: array {entry['name']!r} overruns the file")
        entries[entry["name"]] = ArrayEntry(
            name=entry["name"], dtype=dtype, shape=shape, offset=offset
        )
    return entries, header.get("meta", {})


def _read_footer(path: Path, data_end: int, footer_size: int) -> dict[str, int]:
    """Parse the checksum footer; raises ``ValueError`` when malformed."""
    with path.open("rb") as handle:
        handle.seek(data_end)
        footer_line = handle.read(footer_size)
    try:
        footer = json.loads(footer_line)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: malformed checksum footer: {error}") from None
    if not isinstance(footer, dict) or footer.get("format") != _FOOTER_MAGIC:
        raise ValueError(f"{path}: not a {_FOOTER_MAGIC} footer")
    checksums = footer.get("crc32")
    if not isinstance(checksums, dict):
        raise ValueError(f"{path}: checksum footer has no crc32 table")
    return checksums


def _verify_checksums(
    path: Path, arrays: Mapping[str, np.ndarray], checksums: Mapping[str, int]
) -> None:
    for name, array in arrays.items():
        recorded = checksums.get(name)
        if recorded is None:
            raise ValueError(f"{path}: array {name!r} missing from checksum footer")
        computed = zlib.crc32(np.ascontiguousarray(array))
        if computed != int(recorded):
            raise ValueError(
                f"{path}: checksum mismatch for array {name!r} "
                f"(crc32 {computed} != recorded {recorded}); file is corrupt"
            )
