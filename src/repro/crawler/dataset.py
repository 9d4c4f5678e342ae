"""Crawled broadcast datasets.

A :class:`BroadcastRecord` is the per-broadcast metadata row the paper's
crawler stored (no video or message content): identifiers, times, viewer
IDs with join times, and comment/heart tallies.  A :class:`BroadcastDataset`
is the full measurement — with support for the crawler-downtime window
(Aug 7–9, ~4.5% of broadcasts lost) that the paper reports.

A dataset holds its rows in one form, :class:`BroadcastColumns`: parallel
numpy arrays, with the ragged per-broadcast viewer lists stored as one
flat array plus a CSR-style ``viewer_indptr``.  :data:`COLUMN_LAYOUT` is
the one list of those columns, their order and their dtypes; the
converters here and every file format derive from it.  Aggregates like
:meth:`BroadcastDataset.table1_row` are array reductions.  Records exist
only where rows enter or leave the system — the crawler's monitors and
the JSONL release codec build datasets with
:meth:`BroadcastDataset.from_records`, and iterating a dataset
materializes its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import pairwise, repeat, starmap
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class DowntimeWindow:
    """A crawler outage: broadcasts starting inside it are lost."""

    start_day: float
    end_day: float
    loss_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError("end_day before start_day")
        if not 0 <= self.loss_fraction <= 1:
            raise ValueError("loss_fraction must be within [0, 1]")

    def covers(self, day: float) -> bool:
        return self.start_day <= day < self.end_day


@dataclass
class BroadcastRecord:
    """One crawled broadcast (metadata only, identifiers anonymized upstream)."""

    broadcast_id: int
    broadcaster_id: int
    app_name: str
    start_time: float  # seconds since measurement start
    duration_s: float
    viewer_ids: np.ndarray  # registered (mobile) viewer IDs, one per view
    web_views: int
    heart_count: int
    comment_count: int
    commenter_count: int
    is_private: bool = False
    broadcaster_followers: int = 0

    def __post_init__(self) -> None:
        self.viewer_ids = np.asarray(self.viewer_ids, dtype=np.int64)
        if self.duration_s < 0:
            raise ValueError("negative duration")
        if self.web_views < 0:
            raise ValueError("negative web views")

    @property
    def start_day(self) -> float:
        return self.start_time / SECONDS_PER_DAY

    @property
    def mobile_views(self) -> int:
        return int(len(self.viewer_ids))

    @property
    def total_views(self) -> int:
        return self.mobile_views + self.web_views

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration_s


#: The dataset's columns, their order and their dtypes: the one statement
#: of the schema.  :class:`BroadcastColumns` casts each column to its dtype
#: here and its converters loop over these names; the v2, ``mmap`` and
#: shard files store the columns in this order.  Little-endian is forced
#: so the bytes are platform-independent.
COLUMN_LAYOUT: tuple[tuple[str, str], ...] = (
    ("broadcast_id", "<i8"),
    ("broadcaster_id", "<i8"),
    ("start_time", "<f8"),
    ("duration_s", "<f8"),
    ("web_views", "<i8"),
    ("heart_count", "<i8"),
    ("comment_count", "<i8"),
    ("commenter_count", "<i8"),
    ("is_private", "|b1"),
    ("broadcaster_followers", "<i8"),
    ("viewer_indptr", "<i8"),
    ("viewer_ids", "<i8"),
)

#: Rows a dataset's iterator materializes at a time, so a row-by-row
#: consumer (the JSONL writer) holds one window of records, not them all.
ITER_WINDOW_ROWS = 4096

#: Values an analysis pass over an ID column (Table 1, Figs 2 and 6)
#: handles at a time, so its int64 temporaries stay at 256 KiB each
#: whatever the dataset's size.
WINDOW_VIEWS = 1 << 15

#: The row-aligned columns: one entry per broadcast (all but the viewer CSR).
_ROW_COLUMNS = tuple(
    name for name, _ in COLUMN_LAYOUT if name not in ("viewer_indptr", "viewer_ids")
)


def column_schema(
    record_count: int, viewer_count: int
) -> list[tuple[str, np.dtype, tuple[int]]]:
    """``(name, dtype, shape)`` of every column of a dataset with these
    row and viewer counts, in :data:`COLUMN_LAYOUT` order."""
    lengths = {"viewer_indptr": record_count + 1, "viewer_ids": viewer_count}
    return [
        (name, np.dtype(dtype), (lengths.get(name, record_count),))
        for name, dtype in COLUMN_LAYOUT
    ]


@dataclass
class BroadcastColumns:
    """One batch of broadcasts as parallel arrays.

    Row ``i`` of every array describes the same broadcast; the ragged
    viewer lists are stored CSR-style — ``viewer_ids[viewer_indptr[i] :
    viewer_indptr[i + 1]]`` are row ``i``'s registered viewers.  Each
    column takes its :data:`COLUMN_LAYOUT` dtype on construction.
    """

    app_name: str
    broadcast_id: np.ndarray
    broadcaster_id: np.ndarray
    start_time: np.ndarray  # seconds since measurement start
    duration_s: np.ndarray
    web_views: np.ndarray
    heart_count: np.ndarray
    comment_count: np.ndarray
    commenter_count: np.ndarray
    is_private: np.ndarray
    broadcaster_followers: np.ndarray
    viewer_indptr: np.ndarray  # len == row count + 1
    viewer_ids: np.ndarray  # flat ragged storage

    def __post_init__(self) -> None:
        for name, dtype, shape in column_schema(len(self), len(self.viewer_ids)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != shape:
                raise ValueError(f"column {name!r} length mismatch")
            setattr(self, name, column)
        if len(self) and self.viewer_indptr[-1] != len(self.viewer_ids):
            raise ValueError("viewer_indptr does not span viewer_ids")

    def __len__(self) -> int:
        return len(self.broadcast_id)

    @property
    def mobile_views(self) -> np.ndarray:
        """Per-row registered (mobile) view counts."""
        return np.diff(self.viewer_indptr)

    @property
    def total_views(self) -> np.ndarray:
        """Per-row mobile plus web view counts."""
        return self.mobile_views + self.web_views

    def arrays(self) -> dict[str, np.ndarray]:
        """Every column by name, contiguous, in :data:`COLUMN_LAYOUT` order
        and dtypes: what the v2, ``mmap`` and shard files store."""
        return {
            name: np.ascontiguousarray(getattr(self, name), dtype=dtype)
            for name, dtype in COLUMN_LAYOUT
        }

    @classmethod
    def empty(cls, app_name: str) -> "BroadcastColumns":
        return cls.from_records(app_name, ())

    @classmethod
    def from_records(
        cls, app_name: str, records: Sequence[BroadcastRecord]
    ) -> "BroadcastColumns":
        count = len(records)
        viewer_indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum([len(r.viewer_ids) for r in records], out=viewer_indptr[1:])
        dtypes = dict(COLUMN_LAYOUT)
        viewer_ids = [r.viewer_ids for r in records]
        return cls(
            app_name=app_name,
            **{
                name: np.fromiter(map(attrgetter(name), records), dtypes[name], count)
                for name in _ROW_COLUMNS
            },
            viewer_indptr=viewer_indptr,
            viewer_ids=np.concatenate(viewer_ids) if viewer_ids else (),
        )

    def to_records(self, start: int = 0, stop: Optional[int] = None) -> list[BroadcastRecord]:
        """Materialize one :class:`BroadcastRecord` per row of ``[start, stop)``
        (every row by default).

        All scalar fields are converted to native Python types (via
        ``tolist``) so the records serialize exactly like ones built row
        by row.
        """
        stop = len(self) if stop is None else min(stop, len(self))
        values = {name: getattr(self, name)[start:stop].tolist() for name in _ROW_COLUMNS}
        values["app_name"] = repeat(self.app_name)
        values["viewer_ids"] = [
            self.viewer_ids[begin:end]
            for begin, end in pairwise(self.viewer_indptr[start : stop + 1].tolist())
        ]
        # Positional construction, in the record's own field order.
        rows = zip(*(values[field.name] for field in fields(BroadcastRecord)))
        return list(starmap(BroadcastRecord, rows))

    def take(self, indices: np.ndarray) -> "BroadcastColumns":
        """Rows at ``indices`` (in that order), ragged viewers regathered."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets, viewer_indptr = _view_offsets(self.viewer_indptr, indices)
        return BroadcastColumns(
            app_name=self.app_name,
            **{name: getattr(self, name)[indices] for name in _ROW_COLUMNS},
            viewer_indptr=viewer_indptr,
            viewer_ids=self.viewer_ids[offsets],
        )

    @classmethod
    def concat(
        cls, parts: Sequence["BroadcastColumns"], app_name: Optional[str] = None
    ) -> "BroadcastColumns":
        """Concatenate batches (same app) into one columnar block.

        ``app_name`` names the app the batches must belong to and makes
        an *empty* ``parts`` legal (it concatenates to
        :meth:`empty`) — day-range shards of a quiet day produce zero
        batches, and the merge must not care.  Without it, empty input
        is an error as before.
        """
        if not parts:
            if app_name is None:
                raise ValueError("no column batches to concatenate")
            return cls.empty(app_name)
        first = parts[0]
        if app_name is not None and first.app_name != app_name:
            raise ValueError(
                f"cannot concatenate {first.app_name!r} columns as {app_name!r}"
            )
        if any(p.app_name != first.app_name for p in parts):
            raise ValueError("cannot concatenate columns from different apps")
        if len(parts) == 1:
            return first
        viewer_indptr = np.zeros(
            sum(len(p) for p in parts) + 1, dtype=np.int64
        )
        cursor = 0
        base = 0
        for part in parts:
            viewer_indptr[cursor + 1 : cursor + len(part) + 1] = (
                part.viewer_indptr[1:] + base
            )
            cursor += len(part)
            base += len(part.viewer_ids)
        return cls(
            app_name=first.app_name,
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name in _ROW_COLUMNS
            },
            viewer_indptr=viewer_indptr,
            viewer_ids=np.concatenate([p.viewer_ids for p in parts]),
        )


class BroadcastDataset:
    """A complete crawl of one application over one measurement window.

    The rows live in :attr:`columns`; every aggregate is an array
    reduction over them.  Iterating yields :class:`BroadcastRecord` rows,
    materialized :data:`ITER_WINDOW_ROWS` at a time — the only row view.
    """

    def __init__(self, app_name: str, days: int, columns: BroadcastColumns) -> None:
        self.app_name = app_name
        self.days = days
        self.columns = columns

    @classmethod
    def from_records(
        cls, app_name: str, days: int, records: Sequence[BroadcastRecord]
    ) -> "BroadcastDataset":
        """A dataset of rows that arrive one by one (crawler, JSONL codec)."""
        return cls(app_name, days, BroadcastColumns.from_records(app_name, records))

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[BroadcastRecord]:
        for start in range(0, len(self), ITER_WINDOW_ROWS):
            yield from self.columns.to_records(start, start + ITER_WINDOW_ROWS)

    # -- aggregate statistics (Table 1) ---------------------------------

    @property
    def broadcast_count(self) -> int:
        return len(self)

    @property
    def broadcaster_count(self) -> int:
        return _distinct_count(self.columns.broadcaster_id)

    @property
    def total_views(self) -> int:
        return self.mobile_views + self.web_views

    @property
    def mobile_views(self) -> int:
        return len(self.columns.viewer_ids)

    @property
    def web_views(self) -> int:
        return int(self.columns.web_views.sum())

    @property
    def unique_viewer_count(self) -> int:
        return _distinct_count(self.columns.viewer_ids)

    def table1_row(self) -> dict[str, int]:
        """The Table 1 row for this dataset."""
        return {
            "broadcasts": self.broadcast_count,
            "broadcasters": self.broadcaster_count,
            "total_views": self.total_views,
            "unique_viewers": self.unique_viewer_count,
        }

    # -- time series (Figures 1-2) ---------------------------------------

    def _start_days(self) -> np.ndarray:
        """Per-row integer start day."""
        return (self.columns.start_time / SECONDS_PER_DAY).astype(np.int64)

    def daily_broadcast_counts(self, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """Broadcasts starting on each day in ``[0, days)``; with a row mask
        ``keep`` (:meth:`downtime_survivors`), only the rows it keeps."""
        days = self._start_days()
        valid = (days >= 0) & (days < self.days)
        if keep is not None:
            valid &= keep
        return np.bincount(days[valid], minlength=self.days)

    def daily_active_users(self) -> tuple[np.ndarray, np.ndarray]:
        """(daily unique viewers, daily unique broadcasters)."""
        cols = self.columns
        count_viewers = _window_counter(cols.viewer_ids)
        count_broadcasters = _window_counter(cols.broadcaster_id)
        viewers = np.zeros(self.days, dtype=np.int64)
        broadcasters = np.zeros(self.days, dtype=np.int64)
        for day, viewer_ids, broadcaster_ids in self._day_windows():
            viewers[day] = count_viewers(viewer_ids)
            broadcasters[day] = count_broadcasters(broadcaster_ids)
        return viewers, broadcasters

    def _day_windows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """``(day, viewer IDs, broadcaster IDs)`` of the rows starting on
        each day in ``[0, days)``, one day at a time.

        Rows in start-time order (every generated trace) make each day a
        contiguous row range, whose viewers are one slice of
        ``viewer_ids``.  Other rows are grouped by a stable argsort of
        their days and each day's viewers gathered.  Rows starting outside
        ``[0, days)`` fall in no window.
        """
        cols = self.columns
        days = self._start_days()
        order = None
        if np.any(days[1:] < days[:-1]):
            order = np.argsort(days, kind="stable")
            days = days[order]
        bounds = np.searchsorted(days, np.arange(self.days + 1)).tolist()
        for day, (lo, hi) in enumerate(pairwise(bounds)):
            if order is None:
                views = slice(cols.viewer_indptr[lo], cols.viewer_indptr[hi])
                yield day, cols.viewer_ids[views], cols.broadcaster_id[lo:hi]
            else:
                rows = order[lo:hi]
                offsets, _ = _view_offsets(cols.viewer_indptr, rows)
                yield day, cols.viewer_ids[offsets], cols.broadcaster_id[rows]

    # -- filtering --------------------------------------------------------

    def downtime_survivors(
        self, window: DowntimeWindow, rng: np.random.Generator
    ) -> np.ndarray:
        """Mask of the rows that survive the outage ``window``.

        The rng draws one uniform per row inside the window, in row order
        (rows outside it draw nothing); that draw order is part of the
        deterministic contract with existing seeds.
        """
        start_day = self.columns.start_time / SECONDS_PER_DAY
        inside = np.flatnonzero(
            (window.start_day <= start_day) & (start_day < window.end_day)
        )
        keep = np.ones(len(self), dtype=bool)
        keep[inside[rng.random(len(inside)) < window.loss_fraction]] = False
        return keep

    def apply_downtime(
        self, window: DowntimeWindow, rng: np.random.Generator
    ) -> "BroadcastDataset":
        """Return a copy with broadcasts lost during the outage removed
        (the rows :meth:`downtime_survivors` keeps, drawn the same way)."""
        kept = self.columns.take(np.flatnonzero(self.downtime_survivors(window, rng)))
        return BroadcastDataset(self.app_name, self.days, kept)


def _view_offsets(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``viewer_ids`` of the views of ``rows``, row after
    row, and the CSR ``viewer_indptr`` of those rows alone."""
    counts = indptr[rows + 1] - indptr[rows]
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    offsets = (
        np.arange(starts[-1], dtype=np.int64)
        - np.repeat(starts[:-1], counts)
        + np.repeat(indptr[rows], counts)
    )
    return offsets, starts


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in a sorted array."""
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return first


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array and the length of each one's run."""
    starts = np.flatnonzero(_run_starts(ordered))
    return ordered[starts], np.diff(starts, append=len(ordered))


def _dense_span(values: np.ndarray, slot_bytes: int) -> Optional[tuple[int, int]]:
    """``(low, span)`` of ``values`` when an array of ``slot_bytes`` per
    value of their span is no larger than the int64 copy a sort of them
    would make; ``None`` for wide (or no) values, which sort instead.

    Generated user IDs are dense (1..N), so their span is far below their
    count.  The span is computed in Python ints, so 63-bit and negative
    IDs cannot overflow it.
    """
    if len(values) == 0:
        return None
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span * slot_bytes > 8 * len(values):
        return None
    return low, span


def _mark(marks: np.ndarray, low: int, values: np.ndarray, flag: bool = True) -> None:
    """Set ``marks[v - low] = flag`` for every ``v`` in ``values``,
    :data:`WINDOW_VIEWS` values at a time."""
    for start in range(0, len(values), WINDOW_VIEWS):
        window = values[start : start + WINDOW_VIEWS]
        marks[np.subtract(window, low, dtype=np.int64)] = flag


def _distinct_count(values: np.ndarray) -> int:
    """The number of distinct values: dense values are marked in one bool
    array over their span, wide ones sorted and their runs counted."""
    dense = _dense_span(values, 1)
    if dense is None:
        return int(np.count_nonzero(_run_starts(np.sort(values))))
    low, span = dense
    marks = np.zeros(span, dtype=bool)
    _mark(marks, low, values)
    return int(np.count_nonzero(marks))


def _window_counter(column: np.ndarray) -> Callable[[np.ndarray], int]:
    """A distinct count for windows of ``column``, one window at a time.

    Dense IDs share one bool array over the column's span: a window marks
    its values, counts the marks and clears them again.  Wide IDs sort
    each window.
    """
    dense = _dense_span(column, 1)
    if dense is None:
        return _distinct_count
    low, span = dense
    marks = np.zeros(span, dtype=bool)

    def count(window: np.ndarray) -> int:
        _mark(marks, low, window)
        distinct = int(np.count_nonzero(marks))
        _mark(marks, low, window, False)
        return distinct

    return count


def _distinct_pairs(
    groups: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(group, id)`` pairs of two parallel int64 arrays,
    sorted by group, then id.

    When the two spans fit one int64 together, each pair packs into the
    order-preserving key ``(group - g0) << s | (id - i0)`` and one sort of
    the keys replaces a two-key ``np.lexsort``.  The width comes from the
    data, so pairs that do not fit (63-bit anonymized IDs) still count
    exactly, on the lexsort.
    """
    if len(groups) == 0:
        return groups.copy(), ids.copy()
    g0, i0 = groups.min(), ids.min()
    shift = (int(ids.max()) - int(i0)).bit_length()
    if (int(groups.max()) - int(g0)).bit_length() + shift <= 63:
        keys = groups - g0
        keys <<= shift
        keys |= ids - i0
        keys.sort()
        keys = keys[_run_starts(keys)]
        return (keys >> shift) + g0, (keys & ((1 << shift) - 1)) + i0
    order = np.lexsort((ids, groups))
    g = groups[order]
    v = ids[order]
    distinct = np.ones(len(g), dtype=bool)
    distinct[1:] = (g[1:] != g[:-1]) | (v[1:] != v[:-1])
    return g[distinct], v[distinct]


def _row_windows(indptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Row ranges ``[lo, hi)`` that cover every row with views, in order.

    A range starts at the first row starting at or past each multiple of
    :data:`WINDOW_VIEWS` views, so one holds about that many views (a
    longer row fills its own).
    """
    starts = np.searchsorted(indptr, np.arange(0, indptr[-1], WINDOW_VIEWS))
    return pairwise(np.unique(np.append(starts, len(indptr) - 1)).tolist())


def view_tallies(dataset: BroadcastDataset) -> tuple[np.ndarray, np.ndarray]:
    """``(users, counts)``: each registered user who viewed anything, in
    ascending ID order, and the number of distinct broadcasts they viewed
    (Figure 6).

    ``(row, viewer)`` pairs are deduplicated one window of rows at a time
    (a pair never spans two rows).  Dense viewer IDs add each window's
    tallies into one count array over their span; wide ones keep each
    window's distinct pairs and count them with one sort at the end.
    """
    cols = dataset.columns
    indptr = cols.viewer_indptr
    dense = _dense_span(cols.viewer_ids, 8)
    low, span = dense or (0, 0)
    tally = np.zeros(span, dtype=np.int64)
    pairs = [np.zeros(0, dtype=np.int64)]
    for lo, hi in _row_windows(indptr):
        rows = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo : hi + 1]))
        # Viewer-major: each viewer's distinct rows form one run.
        viewers, _ = _distinct_pairs(cols.viewer_ids[indptr[lo] : indptr[hi]], rows)
        if dense:
            users, counts = _runs(viewers)
            tally[users - low] += counts
        else:
            pairs.append(viewers)
    if dense:
        users = np.flatnonzero(tally)
        return users + low, tally[users]
    return _runs(np.sort(np.concatenate(pairs)))


def creation_tallies(dataset: BroadcastDataset) -> tuple[np.ndarray, np.ndarray]:
    """``(users, counts)``: each broadcaster in ascending ID order and the
    number of broadcasts they created (Figure 6)."""
    return np.unique(dataset.columns.broadcaster_id, return_counts=True)


def views_per_user(dataset: BroadcastDataset) -> dict[int, int]:
    """Number of broadcasts viewed per registered user (Figure 6)."""
    users, counts = view_tallies(dataset)
    return dict(zip(users.tolist(), counts.tolist()))


def creations_per_user(dataset: BroadcastDataset) -> dict[int, int]:
    """Number of broadcasts created per user (Figure 6)."""
    users, counts = creation_tallies(dataset)
    return dict(zip(users.tolist(), counts.tolist()))
