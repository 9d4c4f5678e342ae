"""Columnar-vs-record backend equivalence.

The columnar :class:`BroadcastColumns` core is a pure representation
change: every aggregate, every serialization, and every cache format
must be indistinguishable from the row-by-row record path.  These tests
pin that contract — a divergence here means the vectorized fast path
changed semantics, not just speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crawler.dataset import (
    BroadcastColumns,
    BroadcastDataset,
    creations_per_user,
    merge_datasets,
    views_per_user,
)
from repro.crawler.storage import (
    DatasetCache,
    dataset_from_columnar_bytes,
    dataset_to_bytes,
    dataset_to_columnar_bytes,
    load_dataset_mapped,
    save_dataset_mapped,
)
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig, build_trace_context, generate_day_columns

SCALE = 0.0001
SEED = 17


@pytest.fixture(scope="module")
def columnar_dataset() -> BroadcastDataset:
    return generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED)).dataset


@pytest.fixture(scope="module")
def record_dataset(columnar_dataset) -> BroadcastDataset:
    """The same dataset rebuilt through the record backend."""
    return BroadcastDataset(
        columnar_dataset.app_name,
        columnar_dataset.days,
        records=list(columnar_dataset.records),
    )


class TestAggregateEquivalence:
    def test_backends_in_play(self, columnar_dataset, record_dataset):
        assert columnar_dataset.columns is not None
        assert record_dataset.columns is None

    def test_table1_row_identical(self, columnar_dataset, record_dataset):
        assert columnar_dataset.table1_row() == record_dataset.table1_row()

    def test_daily_broadcast_counts_identical(self, columnar_dataset, record_dataset):
        assert np.array_equal(
            columnar_dataset.daily_broadcast_counts(),
            record_dataset.daily_broadcast_counts(),
        )

    def test_daily_active_users_identical(self, columnar_dataset, record_dataset):
        col_viewers, col_casters = columnar_dataset.daily_active_users()
        rec_viewers, rec_casters = record_dataset.daily_active_users()
        assert np.array_equal(col_viewers, rec_viewers)
        assert np.array_equal(col_casters, rec_casters)

    def test_per_user_tallies_identical(self, columnar_dataset, record_dataset):
        assert views_per_user(columnar_dataset) == views_per_user(record_dataset)
        assert creations_per_user(columnar_dataset) == creations_per_user(record_dataset)

    def test_jsonl_serialization_identical(self, columnar_dataset, record_dataset):
        assert dataset_to_bytes(columnar_dataset) == dataset_to_bytes(record_dataset)

    def test_merge_matches_record_merge(self, columnar_dataset, record_dataset):
        other = generate_trace(TraceConfig.periscope(scale=SCALE, seed=SEED + 1)).dataset
        other_records = BroadcastDataset(
            other.app_name, other.days, records=list(other.records)
        )
        merged_columnar = merge_datasets([columnar_dataset, other])
        merged_records = merge_datasets([record_dataset, other_records])
        assert dataset_to_bytes(merged_columnar) == dataset_to_bytes(merged_records)


class TestColumnsRoundTrip:
    def test_records_to_columns_and_back(self, columnar_dataset):
        columns = columnar_dataset.columns
        rebuilt = BroadcastColumns.from_records(columns.app_name, columns.to_records())
        for field in ("broadcast_id", "start_time", "viewer_indptr", "viewer_ids"):
            assert np.array_equal(getattr(rebuilt, field), getattr(columns, field))

    def test_day_columns_match_materialized_records(self):
        config = TraceConfig.periscope(scale=SCALE, seed=SEED)
        context, _ = build_trace_context(config)
        columns = generate_day_columns(context, 7)
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
        # Record-backed serialization of the same data is also identical.
        record_dataset = BroadcastDataset(
            columnar_dataset.app_name,
            columnar_dataset.days,
            records=list(columnar_dataset.records),
        )
        assert dataset_to_columnar_bytes(record_dataset) == first
