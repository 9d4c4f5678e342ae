"""Column kernels versus row-loop oracles.

A :class:`BroadcastDataset` holds its rows only as
:class:`BroadcastColumns`, and every aggregate is an array kernel.  The
``oracle_*`` loops below are the row-by-row definitions those kernels
replaced: the Table 1 row, daily broadcast counts and daily active users,
the per-user view and creation tallies, and the crawler-downtime draw.
Each kernel must equal its oracle exactly, on generated Periscope and
Meerkat traces over several seeds and on hand-built edge cases.  A
divergence here means a kernel changed semantics, not just speed.

The columns' serialization and cache-format guarantees are pinned here
too, as is the rule that the trace analyses never materialize rows.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler import dataset as dataset_module
from repro.crawler.broadcast_monitor import anonymize_id
from repro.crawler.dataset import (
    SECONDS_PER_DAY,
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
    DowntimeWindow,
    _distinct_count,
    _distinct_pairs,
    creations_per_user,
    view_tallies,
    views_per_user,
)
from repro.crawler.storage import (
    DatasetCache,
    dataset_from_bytes,
    dataset_from_columnar_bytes,
    dataset_to_bytes,
    dataset_to_columnar_bytes,
    load_dataset_mapped,
    save_dataset_mapped,
)
from repro.experiments import context
from repro.experiments.fig01 import CRAWLER_DOWNTIME
from repro.experiments.registry import run_experiment
from repro.parallel import generate_trace
from repro.workload.trace import (
    TraceConfig,
    build_follow_graph,
    build_trace_context,
    generate_day_columns,
)

SCALE = 0.0001
SEED = 17
SEEDS = (17, 18, 19)
MEERKAT_SCALE = 0.005


# -- row-loop oracles ---------------------------------------------------


def oracle_table1_row(records: list[BroadcastRecord]) -> dict[str, int]:
    unique_viewers: set[int] = set()
    for record in records:
        unique_viewers.update(record.viewer_ids.tolist())
    return {
        "broadcasts": len(records),
        "broadcasters": len({record.broadcaster_id for record in records}),
        "total_views": sum(record.mobile_views for record in records)
        + sum(record.web_views for record in records),
        "unique_viewers": len(unique_viewers),
    }


def oracle_daily_broadcast_counts(records: list[BroadcastRecord], days: int) -> np.ndarray:
    counts = np.zeros(days, dtype=np.int64)
    for record in records:
        day = int(record.start_day)
        if 0 <= day < days:
            counts[day] += 1
    return counts


def oracle_daily_active_users(
    records: list[BroadcastRecord], days: int
) -> tuple[np.ndarray, np.ndarray]:
    viewers: list[set[int]] = [set() for _ in range(days)]
    broadcasters: list[set[int]] = [set() for _ in range(days)]
    for record in records:
        day = int(record.start_day)
        if not 0 <= day < days:
            continue
        broadcasters[day].add(record.broadcaster_id)
        viewers[day].update(record.viewer_ids.tolist())
    return (
        np.array([len(s) for s in viewers], dtype=np.int64),
        np.array([len(s) for s in broadcasters], dtype=np.int64),
    )


def oracle_views_per_user(records: list[BroadcastRecord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for record in records:
        for viewer in np.unique(record.viewer_ids):
            counts[int(viewer)] = counts.get(int(viewer), 0) + 1
    return counts


def oracle_creations_per_user(records: list[BroadcastRecord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for record in records:
        counts[record.broadcaster_id] = counts.get(record.broadcaster_id, 0) + 1
    return counts


def oracle_apply_downtime(
    records: list[BroadcastRecord], window: DowntimeWindow, rng: np.random.Generator
) -> list[BroadcastRecord]:
    """One scalar draw per record inside the window, in row order."""
    return [
        record
        for record in records
        if not (window.covers(record.start_day) and rng.random() < window.loss_fraction)
    ]


def assert_aggregates_match(dataset: BroadcastDataset, label: str = "") -> None:
    records = list(dataset)
    assert dataset.table1_row() == oracle_table1_row(records), label
    counts = dataset.daily_broadcast_counts()
    assert np.array_equal(counts, oracle_daily_broadcast_counts(records, dataset.days)), label
    viewers, broadcasters = dataset.daily_active_users()
    want_viewers, want_broadcasters = oracle_daily_active_users(records, dataset.days)
    assert np.array_equal(viewers, want_viewers), label
    assert np.array_equal(broadcasters, want_broadcasters), label
    assert views_per_user(dataset) == oracle_views_per_user(records), label
    assert creations_per_user(dataset) == oracle_creations_per_user(records), label


def assert_downtime_matches(
    dataset: BroadcastDataset, window: DowntimeWindow, seed: int, label: str = ""
) -> BroadcastDataset:
    """Kernel and oracle keep the same rows and leave the rng in one state."""
    kernel_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    observed = dataset.apply_downtime(window, kernel_rng)
    kept = oracle_apply_downtime(list(dataset), window, oracle_rng)
    expected = BroadcastDataset.from_records(dataset.app_name, dataset.days, kept)
    assert dataset_to_bytes(observed) == dataset_to_bytes(expected), label
    assert kernel_rng.bit_generator.state == oracle_rng.bit_generator.state, label
    return observed


def _record(bid, start, viewers=(), broadcaster=1, web=0):
    return BroadcastRecord(
        broadcast_id=bid,
        broadcaster_id=broadcaster,
        app_name="Periscope",
        start_time=start,
        duration_s=60.0,
        viewer_ids=np.array(viewers, dtype=np.int64),
        web_views=web,
        heart_count=0,
        comment_count=0,
        commenter_count=0,
    )


# -- fixtures -----------------------------------------------------------


@pytest.fixture(scope="module")
def columnar_dataset() -> BroadcastDataset:
    return generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED)).dataset


@pytest.fixture(scope="module")
def generated() -> list[tuple[str, BroadcastDataset]]:
    """Generated Periscope and Meerkat datasets over several seeds."""
    datasets = []
    for seed in SEEDS:
        for config in (
            TraceConfig.periscope(scale=SCALE, seed=seed),
            TraceConfig.meerkat(scale=MEERKAT_SCALE, seed=seed),
        ):
            datasets.append((f"{config.app_name}/{seed}", generate_trace(config).dataset))
    return datasets


# -- kernels versus oracles ---------------------------------------------


class TestAggregateEquivalence:
    def test_table1_row_identical(self, generated):
        for label, dataset in generated:
            assert dataset.table1_row() == oracle_table1_row(list(dataset)), label

    def test_daily_broadcast_counts_identical(self, generated):
        for label, dataset in generated:
            assert np.array_equal(
                dataset.daily_broadcast_counts(),
                oracle_daily_broadcast_counts(list(dataset), dataset.days),
            ), label

    def test_daily_active_users_identical(self, generated):
        for label, dataset in generated:
            viewers, broadcasters = dataset.daily_active_users()
            want_viewers, want_broadcasters = oracle_daily_active_users(
                list(dataset), dataset.days
            )
            assert np.array_equal(viewers, want_viewers), label
            assert np.array_equal(broadcasters, want_broadcasters), label

    def test_per_user_tallies_identical(self, generated):
        for label, dataset in generated:
            records = list(dataset)
            assert views_per_user(dataset) == oracle_views_per_user(records), label
            assert creations_per_user(dataset) == oracle_creations_per_user(records), label

    def test_downtime_draw_identical(self, generated):
        for label, dataset in generated:
            partial = DowntimeWindow(0.4 * dataset.days, 0.6 * dataset.days, 0.5)
            observed = assert_downtime_matches(dataset, partial, seed=3, label=label)
            assert 0 < len(observed) < len(dataset), label
            assert_downtime_matches(dataset, CRAWLER_DOWNTIME, seed=2016, label=label)

    def test_jsonl_serialization_identical(self, generated):
        """Rows read back through ``from_records`` serialize byte for byte."""
        for label, dataset in generated:
            rebuilt = BroadcastDataset.from_records(
                dataset.app_name, dataset.days, list(dataset)
            )
            assert dataset_to_bytes(rebuilt) == dataset_to_bytes(dataset), label
            restored = dataset_from_bytes(dataset_to_bytes(dataset))
            assert dataset_to_bytes(restored) == dataset_to_bytes(dataset), label


class TestEdgeCases:
    def test_empty_dataset(self):
        dataset = BroadcastDataset.from_records("Periscope", 3, [])
        assert_aggregates_match(dataset)
        assert dataset.table1_row() == dict.fromkeys(
            ("broadcasts", "broadcasters", "total_views", "unique_viewers"), 0
        )
        rng = np.random.default_rng(5)
        assert len(dataset.apply_downtime(DowntimeWindow(0.0, 3.0, 0.5), rng)) == 0
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize("loss_fraction", [1.0, 0.5])
    def test_every_row_inside_downtime(self, loss_fraction):
        records = [
            _record(bid=i, start=(1.0 + i / 100) * SECONDS_PER_DAY, viewers=(i,))
            for i in range(50)
        ]
        dataset = BroadcastDataset.from_records("Periscope", 3, records)
        window = DowntimeWindow(1.0, 2.0, loss_fraction)
        observed = assert_downtime_matches(dataset, window, seed=11)
        if loss_fraction == 1.0:
            assert len(observed) == 0
        assert_aggregates_match(observed)

    def test_broadcast_starting_on_day_days_excluded(self):
        records = [
            _record(bid=1, start=10.0, viewers=(7,), broadcaster=1),
            _record(bid=2, start=1.5 * SECONDS_PER_DAY, viewers=(7, 8), broadcaster=2),
            _record(bid=3, start=2.0 * SECONDS_PER_DAY, viewers=(9,), broadcaster=3),
        ]
        dataset = BroadcastDataset.from_records("Periscope", 2, records)
        assert_aggregates_match(dataset)
        assert dataset.daily_broadcast_counts().tolist() == [1, 1]
        viewers, broadcasters = dataset.daily_active_users()
        assert viewers.tolist() == [1, 2]
        assert broadcasters.tolist() == [1, 1]
        # The out-of-window row still counts in Table 1.
        assert dataset.table1_row()["broadcasts"] == 3
        assert dataset.table1_row()["unique_viewers"] == 3

    def test_zero_viewer_rows(self):
        records = [
            _record(bid=1, start=10.0, viewers=()),
            _record(bid=2, start=20.0, viewers=(), web=4),
            _record(bid=3, start=30.0, viewers=(5, 5), broadcaster=2),
            _record(bid=4, start=SECONDS_PER_DAY, viewers=()),
        ]
        dataset = BroadcastDataset.from_records("Periscope", 2, records)
        assert_aggregates_match(dataset)
        assert dataset.columns.total_views.tolist() == [0, 4, 2, 0]
        assert views_per_user(dataset) == {5: 1}
        assert_downtime_matches(dataset, DowntimeWindow(0.0, 1.0, 0.5), seed=2)

    def test_anonymized_63_bit_ids(self):
        """63-bit pseudonyms (the release format's IDs) count exactly."""
        records = [
            _record(
                bid=i,
                start=(i % 3) * SECONDS_PER_DAY + 5.0,
                viewers=[anonymize_id(v) for v in (i, i + 1, 2)],
                broadcaster=anonymize_id(i % 4),
            )
            for i in range(12)
        ]
        dataset = BroadcastDataset.from_records("Periscope", 3, records)
        assert dataset.columns.viewer_ids.max() >= 2**40
        assert_aggregates_match(dataset)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _spanned(draw, bits: int, size: int) -> list[int]:
    """``size`` >= 2 int64 values whose span, max - min, has exactly ``bits`` bits."""
    span = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) if bits else 0
    low = draw(st.integers(INT64_MIN, INT64_MAX - span))
    inner = st.integers(low, low + span)
    return [low, low + span] + draw(st.lists(inner, min_size=size - 2, max_size=size - 2))


@st.composite
def pairs_spanning(draw, total_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Parallel (group, id) arrays whose two span widths sum to ``total_bits``,
    with repeated pairs, in a drawn order."""
    group_bits = draw(st.integers(max(0, total_bits - 64), min(64, total_bits)))
    size = draw(st.integers(2, 12))
    groups = _spanned(draw, group_bits, size)
    ids = _spanned(draw, total_bits - group_bits, size)
    repeats = draw(st.lists(st.integers(0, size - 1), max_size=20))
    order = draw(st.permutations(list(range(size)) + repeats))
    return (
        np.array(groups, dtype=np.int64)[order],
        np.array(ids, dtype=np.int64)[order],
    )


def oracle_distinct_pairs(groups: np.ndarray, ids: np.ndarray) -> list[tuple[int, int]]:
    return sorted(set(zip(groups.tolist(), ids.tolist())))


def assert_distinct_kernels_match(groups: np.ndarray, ids: np.ndarray) -> None:
    got_groups, got_ids = _distinct_pairs(groups, ids)
    assert got_groups.dtype == got_ids.dtype == np.int64
    assert list(zip(got_groups.tolist(), got_ids.tolist())) == oracle_distinct_pairs(
        groups, ids
    )
    for values in (groups, ids):
        assert _distinct_count(values) == len(set(values.tolist()))


class TestPackingLimit:
    """The packed one-sort path and the lexsort fallback on both sides of
    the 63-bit limit, against a set oracle."""

    @pytest.mark.parametrize("total_bits", [62, 63, 64])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_distinct_kernels_match_set_oracle(self, total_bits, data):
        groups, ids = data.draw(pairs_spanning(total_bits))
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            assert_distinct_kernels_match(groups, ids)
        assert lexsort.called == (total_bits > 63)

    def test_empty_single_and_negative(self):
        empty = np.array([], dtype=np.int64)
        assert_distinct_kernels_match(empty, empty)
        assert _distinct_count(empty) == 0
        assert_distinct_kernels_match(np.array([-3]), np.array([INT64_MIN]))
        groups = np.array([-1, 5, -1, -1, 5, INT64_MIN], dtype=np.int64)
        ids = np.array([-7, 2, -7, 4, 2, -(2**40)], dtype=np.int64)
        assert_distinct_kernels_match(groups, ids)
        assert _distinct_pairs(groups, ids)[0].tolist() == [INT64_MIN, -1, -1, 5]


@st.composite
def tiny_datasets(draw) -> BroadcastDataset:
    """A few rows over a few days: start days below 0 and at or past
    ``days`` included, zero-viewer rows, viewers repeated inside a row, and
    viewer and broadcaster IDs from pools whose spans have 1 to 63 bits
    (negative IDs included), with rows either shuffled or in start order."""
    days = draw(st.integers(1, 4))
    size = draw(st.integers(2, 8))
    viewer_pool = _spanned(draw, draw(st.one_of(st.integers(1, 8), st.integers(9, 63))), size)
    broadcaster_pool = _spanned(draw, draw(st.integers(1, 63)), size)
    starts = st.floats(-2.0 * SECONDS_PER_DAY, (days + 2) * SECONDS_PER_DAY)
    rows = draw(
        st.lists(
            st.tuples(
                starts,
                st.lists(st.sampled_from(viewer_pool), max_size=6),
                st.sampled_from(broadcaster_pool),
            ),
            max_size=10,
        )
    )
    if draw(st.booleans()):
        rows.sort(key=lambda row: row[0])
    records = [
        _record(bid=i, start=start, viewers=viewers, broadcaster=broadcaster)
        for i, (start, viewers, broadcaster) in enumerate(rows)
    ]
    return BroadcastDataset.from_records("Periscope", days, records)


class TestWindowedKernels:
    """Every windowed kernel against its row-loop oracle, on both sides of
    the mark-or-sort rule and with windows down to one view."""

    @given(
        dataset=tiny_datasets(),
        window_views=st.integers(1, 8),
        outage=st.tuples(st.floats(-1.0, 5.0), st.floats(0.0, 3.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_oracles(self, dataset, window_views, outage, seed):
        with mock.patch.object(dataset_module, "WINDOW_VIEWS", window_views):
            assert_aggregates_match(dataset)
            users, _ = view_tallies(dataset)
            start_day, length, loss_fraction = outage
            window = DowntimeWindow(start_day, start_day + length, loss_fraction)
            kernel_rng = np.random.default_rng(seed)
            survivors = dataset.daily_broadcast_counts(
                dataset.downtime_survivors(window, kernel_rng)
            )
        assert np.all(users[1:] > users[:-1])
        oracle_rng = np.random.default_rng(seed)
        kept = oracle_apply_downtime(list(dataset), window, oracle_rng)
        assert np.array_equal(survivors, oracle_daily_broadcast_counts(kept, dataset.days))
        assert kernel_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_63_bit_ids_in_start_order(self):
        """Day-sorted rows of 63-bit pseudonyms count exactly: their span
        is far past any array a kernel could mark, so every kernel sorts."""
        records = [
            _record(
                bid=i,
                start=(i // 4) * SECONDS_PER_DAY + 5.0,
                viewers=[anonymize_id(v) for v in (i, i + 1, 2, 2)],
                broadcaster=anonymize_id(i % 3),
            )
            for i in range(12)
        ]
        dataset = BroadcastDataset.from_records("Periscope", 3, records)
        assert dataset.columns.viewer_ids.max() >= 2**40
        assert_aggregates_match(dataset)


class TestKernelMemory:
    def test_kernels_bounded_by_id_span_and_busiest_day(self):
        """Each trace kernel peaks (tracemalloc) within 32 B per user-ID
        span slot and per view of the busiest day, plus 1 MiB: no
        temporary grows with the trace's total views."""
        dataset = generate_trace(TraceConfig.periscope(scale=0.002, seed=2016)).dataset
        cols = dataset.columns
        span = int(cols.viewer_ids.max()) - int(cols.viewer_ids.min()) + 1
        days = (cols.start_time / SECONDS_PER_DAY).astype(np.int64)
        day_views = np.bincount(days, weights=cols.mobile_views)
        budget = 32 * (span + int(day_views.max())) + 2**20
        # One int64 per view would not fit.
        assert len(cols.viewer_ids) * 8 > 2 * budget

        def fig1_survivors():
            rng = np.random.default_rng(2016)
            return dataset.daily_broadcast_counts(
                dataset.downtime_survivors(CRAWLER_DOWNTIME, rng)
            )

        kernels = {
            "table1": dataset.table1_row,
            "fig1": fig1_survivors,
            "fig2": dataset.daily_active_users,
            "fig6": lambda: view_tallies(dataset),
        }
        peaks = {}
        for name, kernel in kernels.items():
            tracemalloc.start()
            try:
                kernel()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(peak <= budget for peak in peaks.values()), (peaks, budget)


class TestDowntimePin:
    def test_fig1_downtime_at_default_seed_and_scale(self):
        """Fig 1's outage at seed 2016 and the default scale, as recorded
        when the downtime draw ran one scalar ``rng.random()`` per row."""
        dataset = context.periscope_trace(context.DEFAULT_SCALE, context.DEFAULT_SEED).dataset
        observed = dataset.apply_downtime(
            CRAWLER_DOWNTIME, np.random.default_rng(context.DEFAULT_SEED)
        )
        assert (len(dataset), len(observed)) == (9_577, 9_275)
        assert dataset.daily_broadcast_counts()[84:86].tolist() == [147, 186]
        assert observed.daily_broadcast_counts()[84:86].tolist() == [16, 15]


class TestNoRowMaterialization:
    def test_trace_experiments_read_columns_only(self, monkeypatch):
        """Table 1 and Figs 1-7 run without building a single record."""

        def forbidden(self):
            raise AssertionError("trace analysis materialized BroadcastRecord rows")

        monkeypatch.setattr(BroadcastColumns, "to_records", forbidden)
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        context.clear_caches()
        try:
            for exp_id in ["table1"] + [f"fig{i}" for i in range(1, 8)]:
                run_experiment(exp_id, scale=0.0002, seed=SEED)
        finally:
            context.clear_caches()


# -- representation round trips -------------------------------------------


class TestColumnsRoundTrip:
    def test_records_to_columns_and_back(self, columnar_dataset):
        columns = columnar_dataset.columns
        rebuilt = BroadcastColumns.from_records(columns.app_name, columns.to_records())
        for field in ("broadcast_id", "start_time", "viewer_indptr", "viewer_ids"):
            assert np.array_equal(getattr(rebuilt, field), getattr(columns, field))

    def test_day_columns_match_materialized_records(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context_ = build_trace_context(config, build_follow_graph(config))
        columns = generate_day_columns(context_, 7)
        records = columns.to_records()
        assert len(records) == len(columns)
        for i, record in enumerate(records):
            assert record.broadcast_id == int(columns.broadcast_id[i])
            assert len(record.viewer_ids) == int(columns.mobile_views[i])


class TestCacheFormatEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("fmt", ["v2", "mmap"])
    def test_cached_trace_bytes_identical(self, tmp_path, workers, fmt):
        """Cache files are byte-identical across worker counts per format."""
        config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=workers)
        cache_dir = tmp_path / f"{fmt}-w{workers}"
        generate_trace(config, cache_dir=cache_dir, cache_format=fmt)
        path = DatasetCache(cache_dir, fmt=fmt).path_for(config.cache_key())
        baseline_dir = tmp_path / f"{fmt}-baseline"
        baseline_config = TraceConfig.periscope(scale=SCALE, seed=SEED, workers=1)
        generate_trace(baseline_config, cache_dir=baseline_dir, cache_format=fmt)
        baseline = DatasetCache(baseline_dir, fmt=fmt).path_for(config.cache_key())
        assert path.read_bytes() == baseline.read_bytes()

    def test_formats_store_identical_dataset(self, columnar_dataset, tmp_path):
        save_dataset_mapped(columnar_dataset, tmp_path / "d.cols")
        via_mmap = load_dataset_mapped(tmp_path / "d.cols")
        via_v2 = dataset_from_columnar_bytes(dataset_to_columnar_bytes(columnar_dataset))
        assert dataset_to_bytes(via_mmap) == dataset_to_bytes(via_v2)
        assert via_mmap.table1_row() == via_v2.table1_row()

    def test_v2_serialization_deterministic(self, columnar_dataset):
        first = dataset_to_columnar_bytes(columnar_dataset)
        second = dataset_to_columnar_bytes(columnar_dataset)
        assert first == second
        # The same rows rebuilt through from_records serialize identically.
        rebuilt = BroadcastDataset.from_records(
            columnar_dataset.app_name, columnar_dataset.days, list(columnar_dataset)
        )
        assert dataset_to_columnar_bytes(rebuilt) == first
