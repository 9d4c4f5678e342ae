"""Tests for dataset persistence."""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.crawler.arrayfile import (
    ArrayFileWriter,
    read_array_index,
    read_arrays,
    write_arrays,
)
from repro.crawler.storage import (
    _CACHE_FORMATS,
    DatasetCache,
    dataset_from_bytes,
    dataset_from_columnar_bytes,
    dataset_to_bytes,
    dataset_to_columnar_bytes,
    load_dataset,
    load_dataset_mapped,
    save_dataset,
    save_dataset_mapped,
)
from repro.parallel import generate_trace
from repro.workload.trace import TraceConfig


@pytest.fixture(scope="module")
def small_dataset():
    return generate_trace(TraceConfig.periscope(scale=0.00003, seed=6)).dataset


class TestDatasetStorage:
    def test_round_trip_preserves_aggregates(self, small_dataset, tmp_path):
        path = tmp_path / "periscope.jsonl.gz"
        save_dataset(small_dataset, path)
        loaded = load_dataset(path)
        assert loaded.app_name == small_dataset.app_name
        assert loaded.days == small_dataset.days
        assert loaded.table1_row() == small_dataset.table1_row()

    def test_round_trip_preserves_records(self, small_dataset, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        save_dataset(small_dataset, path)
        loaded = load_dataset(path)
        original = next(iter(small_dataset))
        restored = next(iter(loaded))
        assert restored.broadcast_id == original.broadcast_id
        assert restored.duration_s == original.duration_s
        assert np.array_equal(restored.viewer_ids, original.viewer_ids)
        assert restored.broadcaster_followers == original.broadcaster_followers

    def test_file_is_gzip_jsonl(self, small_dataset, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        save_dataset(small_dataset, path)
        with gzip.open(path, "rt") as handle:
            header = json.loads(handle.readline())
        assert header["app_name"] == "Periscope"
        assert header["record_count"] == len(small_dataset)

    def test_truncated_file_detected(self, small_dataset, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        save_dataset(small_dataset, path)
        with gzip.open(path, "rt") as handle:
            lines = handle.readlines()
        with gzip.open(path, "wt") as handle:
            handle.writelines(lines[:-2])  # drop records, keep header count
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path)

    def test_bad_version_detected(self, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"format_version": 99, "app_name": "x", "days": 1}) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)

    def test_empty_file_detected(self, tmp_path):
        path = tmp_path / "d.jsonl.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path)


class TestDeterministicBytes:
    def test_serialization_is_byte_deterministic(self, small_dataset):
        assert dataset_to_bytes(small_dataset) == dataset_to_bytes(small_dataset)

    def test_saved_files_are_byte_identical(self, small_dataset, tmp_path):
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        save_dataset(small_dataset, a)
        save_dataset(small_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_round_trip(self, small_dataset):
        restored = dataset_from_bytes(dataset_to_bytes(small_dataset))
        assert restored.table1_row() == small_dataset.table1_row()
        assert np.array_equal(
            next(iter(restored)).viewer_ids, next(iter(small_dataset)).viewer_ids
        )


class TestDatasetCache:
    def test_miss_then_hit(self, small_dataset, tmp_path):
        cache = DatasetCache(tmp_path / "cache")
        assert cache.get("abc123") is None
        cache.put("abc123", small_dataset)
        assert "abc123" in cache
        cached = cache.get("abc123")
        assert cached is not None
        assert cached.table1_row() == small_dataset.table1_row()

    def test_distinct_keys_are_independent(self, small_dataset, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.put("key-a", small_dataset)
        assert cache.get("key-b") is None

    def test_corrupt_entry_treated_as_miss_and_removed(self, small_dataset, tmp_path):
        cache = DatasetCache(tmp_path)
        cache.put("key", small_dataset)
        cache.path_for("key").write_bytes(b"not gzip at all")
        assert cache.get("key") is None
        assert not cache.path_for("key").exists()

    def test_truncated_gzip_entry_treated_as_miss(self, small_dataset, tmp_path):
        """A file cut mid-byte (EOFError, not OSError) must be a miss, not a crash."""
        cache = DatasetCache(tmp_path, fmt="v2")
        path = cache.put("key", small_dataset)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get("key") is None
        assert not path.exists()

    def test_truncated_entry_regenerated_and_overwritten(self, small_dataset, tmp_path):
        """After a truncation miss, put() restores a loadable entry in place."""
        cache = DatasetCache(tmp_path, fmt="v2")
        path = cache.put("key", small_dataset)
        intact = path.read_bytes()
        path.write_bytes(intact[:-7])  # clip the gzip trailer mid-byte
        assert cache.get("key") is None
        cache.put("key", small_dataset)
        assert path.read_bytes() == intact
        restored = cache.get("key")
        assert restored is not None
        assert restored.table1_row() == small_dataset.table1_row()

    def test_invalid_key_rejected(self, tmp_path):
        cache = DatasetCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")
        with pytest.raises(ValueError):
            cache.path_for("")

    def test_creates_missing_root(self, small_dataset, tmp_path):
        cache = DatasetCache(tmp_path / "deep" / "nested")
        cache.put("k", small_dataset)
        assert cache.get("k") is not None


class TestColumnarStorage:
    def test_round_trip_preserves_everything(self, small_dataset):
        restored = dataset_from_columnar_bytes(dataset_to_columnar_bytes(small_dataset))
        assert restored.app_name == small_dataset.app_name
        assert restored.days == small_dataset.days
        assert restored.table1_row() == small_dataset.table1_row()
        # Full fidelity: re-serializing through JSONL gives identical bytes.
        assert dataset_to_bytes(restored) == dataset_to_bytes(small_dataset)

    def test_serialization_is_byte_deterministic(self, small_dataset):
        assert dataset_to_columnar_bytes(small_dataset) == dataset_to_columnar_bytes(
            small_dataset
        )

    def test_header_is_json_line(self, small_dataset):
        payload = gzip.decompress(dataset_to_columnar_bytes(small_dataset))
        header = json.loads(payload[: payload.find(b"\n")])
        assert header["format_version"] == 2
        assert header["record_count"] == len(small_dataset)

    def test_truncated_columns_detected(self, small_dataset):
        payload = gzip.decompress(dataset_to_columnar_bytes(small_dataset))
        clipped = gzip.compress(payload[:-16])
        with pytest.raises(ValueError, match="truncated"):
            dataset_from_columnar_bytes(clipped)

    def test_trailing_bytes_detected(self, small_dataset):
        payload = gzip.decompress(dataset_to_columnar_bytes(small_dataset))
        padded = gzip.compress(payload + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            dataset_from_columnar_bytes(padded)

    def test_bad_version_detected(self, small_dataset):
        payload = gzip.decompress(dataset_to_columnar_bytes(small_dataset))
        newline = payload.find(b"\n")
        header = json.loads(payload[:newline])
        header["format_version"] = 99
        doctored = gzip.compress(json.dumps(header).encode() + payload[newline:])
        with pytest.raises(ValueError, match="version"):
            dataset_from_columnar_bytes(doctored)

    def test_empty_payload_detected(self):
        with pytest.raises(ValueError, match="empty"):
            dataset_from_columnar_bytes(gzip.compress(b"no newline here"))


class TestCacheFormats:
    def test_default_format_is_mmap(self, small_dataset, tmp_path):
        cache = DatasetCache(tmp_path)
        path = cache.put("key", small_dataset)
        assert path.name.endswith(".cols")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cache format"):
            DatasetCache(tmp_path, fmt="v3")

    @pytest.mark.parametrize(
        "writer,reader",
        [(w, r) for w in sorted(_CACHE_FORMATS) for r in sorted(_CACHE_FORMATS) if w != r],
    )
    def test_cross_format_entries_readable(self, small_dataset, tmp_path, writer, reader):
        """A cache in any format reads entries every other format wrote."""
        DatasetCache(tmp_path, fmt=writer).put("key", small_dataset)
        hit = DatasetCache(tmp_path, fmt=reader).get("key")
        assert hit is not None
        assert dataset_to_bytes(hit) == dataset_to_bytes(small_dataset)
        assert "key" in DatasetCache(tmp_path, fmt=reader)

    @pytest.mark.parametrize("fmt", sorted(_CACHE_FORMATS))
    def test_corrupt_entry_recovered_in_every_format(self, small_dataset, tmp_path, fmt):
        """Garbage in any format is a miss, removed, and re-puttable."""
        cache = DatasetCache(tmp_path / fmt, fmt=fmt)
        path = cache.put("key", small_dataset)
        path.write_bytes(b"\x00garbage\x00" * 3)
        assert cache.get("key") is None
        assert not path.exists()
        cache.put("key", small_dataset)
        hit = cache.get("key")
        assert hit is not None
        assert dataset_to_bytes(hit) == dataset_to_bytes(small_dataset)

    def test_corrupt_preferred_format_falls_through_to_valid_fallback(
        self, small_dataset, tmp_path
    ):
        """Regression: a corrupt mmap entry must not mask a valid v2 entry."""
        DatasetCache(tmp_path, fmt="v2").put("key", small_dataset)
        mmap_cache = DatasetCache(tmp_path, fmt="mmap")
        mmap_path = mmap_cache.put("key", small_dataset)
        mmap_path.write_bytes(b"not an array file")
        hit = mmap_cache.get("key")
        assert hit is not None
        assert dataset_to_bytes(hit) == dataset_to_bytes(small_dataset)
        # The corrupt preferred entry is cleaned up; the fallback remains.
        assert not mmap_path.exists()
        assert mmap_cache.path_for("key", fmt="v2").exists()

    def test_version_mismatch_is_a_miss(self, small_dataset, tmp_path):
        """An entry with the wrong embedded version is dropped, not fatal."""
        cache = DatasetCache(tmp_path, fmt="v2")
        path = cache.put("key", small_dataset)
        # JSONL bytes under the v2 suffix: the JSON header parses but
        # carries format_version 1, which the v2 reader must reject.
        path.write_bytes(dataset_to_bytes(small_dataset))
        assert cache.get("key") is None
        assert not path.exists()

    def test_own_format_preferred_over_fallback(self, small_dataset, tmp_path):
        DatasetCache(tmp_path, fmt="v2").put("key", small_dataset)
        mmap_cache = DatasetCache(tmp_path, fmt="mmap")
        mmap_cache.put("key", small_dataset)
        # Corrupt the v2 entry; the mmap cache must not even look at it.
        mmap_cache.path_for("key", fmt="v2").write_bytes(b"garbage")
        hit = mmap_cache.get("key")
        assert hit is not None
        assert hit.table1_row() == small_dataset.table1_row()


class TestCacheHygiene:
    def test_stale_temps_swept_on_init(
        self, small_dataset, tmp_path, stale_temp_harness
    ):
        """Dead writers' temps are swept; live writers' temps survive."""
        cache = DatasetCache(tmp_path)
        path = cache.put("key", small_dataset)
        stale_temp_harness(
            DatasetCache,
            dead_name=f"{path.name}.tmp{{pid}}",
            live_name="trace-other.cols.gz.tmp{pid}",
        )
        assert DatasetCache(tmp_path).get("key") is not None

    def test_put_cleans_temp_when_serialization_fails(
        self, small_dataset, tmp_path, monkeypatch
    ):
        cache = DatasetCache(tmp_path, fmt="v2")

        def explode(dataset, path):
            path.write_bytes(b"half written")
            raise RuntimeError("disk on fire")

        monkeypatch.setitem(
            _CACHE_FORMATS, "v2", (".cols.gz", explode, _CACHE_FORMATS["v2"][2])
        )
        with pytest.raises(RuntimeError):
            cache.put("key", small_dataset)
        assert not list(tmp_path.glob("*.tmp*"))
        assert cache.get("key") is None

    def test_contains_rejects_corrupt_entry(self, small_dataset, tmp_path):
        """``in`` matches ``get`` semantics: a poisoned key is absent."""
        cache = DatasetCache(tmp_path)
        assert "key" not in cache
        path = cache.put("key", small_dataset)
        assert "key" in cache
        path.write_bytes(b"not gzip at all")
        assert "key" not in cache
        assert not path.exists()


class TestMappedDataset:
    def test_round_trip_preserves_everything(self, small_dataset, tmp_path):
        path = tmp_path / "d.cols"
        save_dataset_mapped(small_dataset, path)
        restored = load_dataset_mapped(path)
        assert restored.app_name == small_dataset.app_name
        assert restored.days == small_dataset.days
        assert restored.table1_row() == small_dataset.table1_row()
        # Full fidelity: re-serializing through JSONL gives identical bytes.
        assert dataset_to_bytes(restored) == dataset_to_bytes(small_dataset)

    def test_columns_are_read_only_memory_maps(self, small_dataset, tmp_path):
        path = tmp_path / "d.cols"
        save_dataset_mapped(small_dataset, path)
        columns = load_dataset_mapped(path).columns
        # asarray in __post_init__ strips the memmap subclass but keeps
        # the zero-copy view: the column is a read-only view of the map.
        assert columns.start_time.base is not None
        assert not columns.start_time.flags.writeable
        with pytest.raises(ValueError):
            columns.start_time[0] = 0.0

    def test_written_files_are_byte_identical(self, small_dataset, tmp_path):
        a, b = tmp_path / "a.cols", tmp_path / "b.cols"
        save_dataset_mapped(small_dataset, a)
        save_dataset_mapped(small_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_truncation_detected(self, small_dataset, tmp_path):
        path = tmp_path / "d.cols"
        save_dataset_mapped(small_dataset, path)
        data = path.read_bytes()
        path.write_bytes(data[:-4096])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset_mapped(path)

    def test_trailing_bytes_detected(self, small_dataset, tmp_path):
        path = tmp_path / "d.cols"
        save_dataset_mapped(small_dataset, path)
        with path.open("ab") as handle:
            handle.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_dataset_mapped(path)

    def test_foreign_array_file_rejected(self, tmp_path):
        path = tmp_path / "other.cols"
        write_arrays(path, {"x": np.arange(3)}, meta={"format": "something-else"})
        with pytest.raises(ValueError, match="not a mapped broadcast dataset"):
            load_dataset_mapped(path)


class TestArrayFile:
    def test_round_trip_and_meta(self, tmp_path):
        path = tmp_path / "bundle.arrays"
        original = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
            "flags": np.array([True, False, True]),
            "empty": np.empty(0, dtype=np.int64),
        }
        write_arrays(path, original, meta={"tag": 42})
        arrays, meta = read_arrays(path)
        assert meta == {"tag": 42}
        assert list(arrays) == list(original)
        for name, array in original.items():
            assert np.array_equal(arrays[name], array)

    def test_blocks_are_page_aligned(self, tmp_path):
        from repro.crawler.arrayfile import PAGE_SIZE

        path = tmp_path / "bundle.arrays"
        write_arrays(path, {"a": np.arange(5), "b": np.arange(9)})
        with path.open("rb") as handle:
            header_len = len(handle.readline())
        assert header_len % PAGE_SIZE == 0
        assert path.stat().st_size % PAGE_SIZE == 0

    def test_writer_rejects_name_not_in_schema(self, tmp_path):
        with ArrayFileWriter(tmp_path / "w.arrays", [("a", "<i8", (2,))]) as writer:
            with pytest.raises(ValueError, match="'b' is not appendable"):
                writer.append("b", np.arange(2, dtype=np.int64))
            writer.append("a", np.arange(2, dtype=np.int64))

    def test_writer_rejects_sealed_name(self, tmp_path):
        """Appending a later array seals the earlier ones for good."""
        schema = [("a", "<i8", (0,)), ("b", "<i8", (2,))]
        with ArrayFileWriter(tmp_path / "w.arrays", schema) as writer:
            writer.append("b", np.arange(1, dtype=np.int64))
            with pytest.raises(ValueError, match="'a' is not appendable"):
                writer.append("a", np.empty(0, dtype=np.int64))
            writer.append("b", np.arange(1, dtype=np.int64))
        arrays, _ = read_arrays(tmp_path / "w.arrays")
        assert list(arrays["b"]) == [0, 0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bundle.arrays"
        path.write_bytes(b'{"format": "nope"}\n')
        with pytest.raises(ValueError, match="repro-arrays"):
            read_arrays(path)

    def test_object_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="object"):
            write_arrays(tmp_path / "x.arrays", {"bad": np.array([{}, {}])})

    def test_checksum_footer_convicts_flipped_byte(self, tmp_path):
        """A one-byte flip keeps the structure valid but fails verify=True."""
        path = tmp_path / "bundle.arrays"
        write_arrays(path, {"a": np.arange(64, dtype=np.int64)})
        read_arrays(path, verify=True)  # pristine file verifies
        data = bytearray(path.read_bytes())
        header_end = data.index(b"\n") + 1
        data[header_end] ^= 0xFF
        path.write_bytes(bytes(data))
        read_arrays(path)  # structure still parses without verification
        with pytest.raises(ValueError, match="checksum mismatch for array 'a'"):
            read_arrays(path, verify=True)

    def test_file_without_footer_is_rejected(self, tmp_path):
        """A header with no footer_size fails to load, verified or not: such
        a file has no checksums, so verify=True could only pass vacuously."""
        path = tmp_path / "footerless.arrays"
        write_arrays(path, {"a": np.arange(10, dtype=np.int64)})
        data = path.read_bytes()
        header_line = data[: data.index(b"\n") + 1]
        header = json.loads(header_line)
        footer_size = header.pop("footer_size")
        encoded = json.dumps(header).encode("ascii")
        padded = encoded + b" " * (len(header_line) - len(encoded) - 1) + b"\n"
        path.write_bytes(padded + data[len(header_line) : len(data) - footer_size])
        for verify in (False, True):
            with pytest.raises(ValueError, match="declares no checksum footer"):
                read_arrays(path, verify=verify)
        with pytest.raises(ValueError, match="declares no checksum footer"):
            read_array_index(path)

    def test_footer_included_in_truncation_check(self, tmp_path):
        """Chopping exactly the footer off must not yield a valid file."""
        path = tmp_path / "bundle.arrays"
        write_arrays(path, {"a": np.arange(10, dtype=np.int64)})
        with path.open("rb") as handle:
            header = json.loads(handle.readline())
        size = path.stat().st_size
        with path.open("r+b") as handle:
            handle.truncate(size - header["footer_size"])
        with pytest.raises(ValueError, match="truncated"):
            read_arrays(path)

    def test_footer_write_is_deterministic(self, tmp_path):
        """The checksummed format stays byte-deterministic."""
        arrays = {"a": np.arange(100, dtype=np.int64), "b": np.linspace(0, 1, 33)}
        first = tmp_path / "one.arrays"
        second = tmp_path / "two.arrays"
        write_arrays(first, arrays, meta={"tag": 1})
        write_arrays(second, arrays, meta={"tag": 1})
        assert first.read_bytes() == second.read_bytes()
