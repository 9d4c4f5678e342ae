"""The dataset's one column schema (:data:`repro.crawler.dataset.COLUMN_LAYOUT`).

A column is declared three times: its layout row (name, order, dtype),
its :class:`BroadcastColumns` field and its :class:`BroadcastRecord`
field.  Every converter and file format derives from those three, so
these tests hold them together and pin the bytes both column-carrying
codecs write for a small fixed dataset.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.crawler import dataset as dataset_module
from repro.crawler.dataset import (
    COLUMN_LAYOUT,
    BroadcastColumns,
    BroadcastDataset,
    BroadcastRecord,
)
from repro.crawler.storage import (
    dataset_from_bytes,
    dataset_from_columnar_bytes,
    dataset_to_bytes,
    dataset_to_columnar_bytes,
)

LAYOUT_NAMES = [name for name, _ in COLUMN_LAYOUT]
VIEWER_CSR = ["viewer_indptr", "viewer_ids"]

#: A release file's key order: it is :class:`BroadcastRecord`'s field order.
JSONL_KEYS = [
    "broadcast_id",
    "broadcaster_id",
    "app_name",
    "start_time",
    "duration_s",
    "viewer_ids",
    "web_views",
    "heart_count",
    "comment_count",
    "commenter_count",
    "is_private",
    "broadcaster_followers",
]

#: SHA-256 of each codec's output for :func:`_fixed_dataset`, as
#: ``(gzip bytes, the payload they inflate to)``.  The gzip bytes are
#: deflate's output, compared only on the zlib they were recorded with.
CODEC_DIGESTS = {
    "jsonl": (
        "08e2e42484ba5ce09fa7548495c9c6c48caa1060faf60ca24bb4a84b2d5b9262",
        "119dc62f3eefaeddeeefd5e60c49a2efe4af8baeec2be98444b9150716e241b1",
    ),
    "v2": (
        "3318687f17ed71f685d7b449a2bfd7136db9a49bfeb2e7bf169e4adf5d76589a",
        "595456aa4d78941bdb61d8de37c81f9b5d898b292ec5edfac85cb99f7e74ed4c",
    ),
}
DIGEST_ZLIB = "1.2.13"


def _field_names(cls) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)]


def _fixed_dataset() -> BroadcastDataset:
    """Three rows: repeated and 41-bit viewers, a private row without
    viewers, fractional times."""
    records = [
        BroadcastRecord(
            broadcast_id=1,
            broadcaster_id=7,
            app_name="Periscope",
            start_time=12.5,
            duration_s=61.25,
            viewer_ids=np.array([3, 9, 3]),
            web_views=2,
            heart_count=40,
            comment_count=5,
            commenter_count=4,
            is_private=False,
            broadcaster_followers=120,
        ),
        BroadcastRecord(
            broadcast_id=2,
            broadcaster_id=8,
            app_name="Periscope",
            start_time=86_400.75,
            duration_s=0.0,
            viewer_ids=np.array([], dtype=np.int64),
            web_views=0,
            heart_count=0,
            comment_count=0,
            commenter_count=0,
            is_private=True,
            broadcaster_followers=0,
        ),
        BroadcastRecord(
            broadcast_id=3,
            broadcaster_id=7,
            app_name="Periscope",
            start_time=90_000.0,
            duration_s=3_600.5,
            viewer_ids=np.array([1 << 40, 11]),
            web_views=1,
            heart_count=7,
            comment_count=2,
            commenter_count=1,
            is_private=False,
            broadcaster_followers=5,
        ),
    ]
    return BroadcastDataset.from_records("Periscope", 2, records)


def _constructed(columns: BroadcastColumns) -> dict[str, BroadcastColumns]:
    """``columns`` rebuilt by every converter."""
    return {
        "columns": columns,
        "empty": BroadcastColumns.empty(columns.app_name),
        "from_records": BroadcastColumns.from_records(
            columns.app_name, columns.to_records()
        ),
        "take": columns.take(np.array([2, 0])),
        "concat": BroadcastColumns.concat([columns, columns]),
        "concat_none": BroadcastColumns.concat([], app_name=columns.app_name),
    }


class TestOneSchema:
    def test_columns_fields_follow_the_layout(self):
        assert _field_names(BroadcastColumns) == ["app_name", *LAYOUT_NAMES]

    def test_record_fields_are_the_row_columns_plus_app_and_viewers(self):
        row_columns = [name for name in LAYOUT_NAMES if name not in VIEWER_CSR]
        names = _field_names(BroadcastRecord)
        assert sorted(names) == sorted([*row_columns, "app_name", "viewer_ids"])
        assert names == JSONL_KEYS

    def test_every_converter_yields_layout_dtypes(self):
        for label, columns in _constructed(_fixed_dataset().columns).items():
            for name, dtype in COLUMN_LAYOUT:
                assert getattr(columns, name).dtype == np.dtype(dtype), (label, name)

    def test_a_narrowed_column_stays_narrow(self, monkeypatch):
        """Narrowing a column is one edit of its layout row: no converter
        casts it back to a dtype of its own."""
        narrowed = tuple(
            (name, "<i4" if name == "viewer_ids" else dtype)
            for name, dtype in COLUMN_LAYOUT
        )
        monkeypatch.setattr(dataset_module, "COLUMN_LAYOUT", narrowed)
        dataset = _fixed_dataset()
        for label, columns in _constructed(dataset.columns).items():
            assert columns.viewer_ids.dtype == np.int32, label
            assert columns.arrays()["viewer_ids"].dtype == np.int32, label
        restored = dataset_from_columnar_bytes(dataset_to_columnar_bytes(dataset))
        assert restored.columns.viewer_ids.dtype == np.int32
        assert np.array_equal(restored.columns.viewer_ids, dataset.columns.viewer_ids)

    def test_jsonl_record_missing_a_key_raises(self):
        header, first, *_ = gzip.decompress(
            dataset_to_bytes(_fixed_dataset())
        ).decode().splitlines()
        record = json.loads(first)
        del record["commenter_count"]
        data = gzip.compress(f"{header}\n{json.dumps(record)}\n".encode())
        with pytest.raises(KeyError, match="commenter_count"):
            dataset_from_bytes(data)


class TestCodecBytesPinned:
    @pytest.mark.parametrize(
        "codec, encode",
        [("jsonl", dataset_to_bytes), ("v2", dataset_to_columnar_bytes)],
    )
    def test_fixed_dataset_bytes(self, codec, encode):
        data = encode(_fixed_dataset())
        gzip_digest, payload_digest = CODEC_DIGESTS[codec]
        assert hashlib.sha256(gzip.decompress(data)).hexdigest() == payload_digest
        if zlib.ZLIB_RUNTIME_VERSION == DIGEST_ZLIB:
            assert hashlib.sha256(data).hexdigest() == gzip_digest


class TestStreamedJsonl:
    """Iteration, and so the JSONL writer, materializes one window of
    records at a time (``ITER_WINDOW_ROWS``)."""

    @pytest.mark.parametrize("window", [1, 2])
    def test_windows_keep_the_pinned_bytes(self, monkeypatch, window):
        monkeypatch.setattr(dataset_module, "ITER_WINDOW_ROWS", window)
        dataset = _fixed_dataset()
        payload = gzip.decompress(dataset_to_bytes(dataset))
        assert hashlib.sha256(payload).hexdigest() == CODEC_DIGESTS["jsonl"][1]
        assert [r.broadcast_id for r in dataset] == [1, 2, 3]

    def test_writer_memory_is_one_window(self):
        rows = 10 * dataset_module.ITER_WINDOW_ROWS
        rng = np.random.default_rng(0)
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(rng.integers(0, 4, rows), out=indptr[1:])
        counts = {name: rng.integers(0, 1_000, rows) for name in (
            "broadcaster_id", "web_views", "heart_count", "comment_count",
            "commenter_count", "broadcaster_followers",
        )}
        dataset = BroadcastDataset("Periscope", 30, BroadcastColumns(
            app_name="Periscope",
            broadcast_id=np.arange(1, rows + 1),
            start_time=np.arange(rows) * 60.0,
            duration_s=rng.random(rows) * 600,
            is_private=np.zeros(rows, dtype=bool),
            viewer_indptr=indptr,
            viewer_ids=rng.integers(1, 10**6, int(indptr[-1])),
            **counts,
        ))
        tracemalloc.start()
        try:
            data = dataset_to_bytes(dataset)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output buffer, its copy, and a few MiB for one window of
        # records: 4.2 MiB here, against 24 MiB when every record was
        # built before the first line was written.
        assert peak < 2 * len(data) + 6 * 2**20
