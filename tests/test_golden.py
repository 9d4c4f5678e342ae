"""The whole-system fingerprint: the encoder, GOLDEN.json's reference trace
entry, and the numpy-version fallback of the checker.

Every experiment's digests are checked by
``tests/test_cli.py::TestCli::test_all_runs_every_experiment``, which
already runs ``--all``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.experiments.registry import ExperimentResult, fingerprint


class TestFingerprint:
    def test_float_bits_matter(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)
        assert fingerprint(np.float64(0.5)) == fingerprint(0.5)

    def test_dicts_and_sets_are_order_free(self):
        assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})
        assert fingerprint({3, 1, 2}) == fingerprint(frozenset({2, 3, 1}))

    def test_containers_are_distinguished(self):
        assert fingerprint([1, 2]) != fingerprint({1, 2})
        assert fingerprint([1, 2]) == fingerprint((1, 2))

    def test_bytes_are_fed_raw(self):
        assert fingerprint(b"ab") == fingerprint(b"ab")
        assert fingerprint(b"ab") != fingerprint(b"ba")

    def test_arrays_hash_dtype_shape_and_bytes(self):
        values = np.arange(6, dtype=np.float64)
        assert fingerprint(values) == fingerprint(values.copy())
        assert fingerprint(values) != fingerprint(values.reshape(2, 3))
        assert fingerprint(values) != fingerprint(values.astype(np.float32))

    def test_objects_hash_class_and_fields(self):
        result = ExperimentResult("x", "X", {"k": 1.0}, "text")
        same = ExperimentResult("x", "X", {"k": 1.0}, "text")
        assert fingerprint(result) == fingerprint(same)
        assert fingerprint(result) != fingerprint(
            ExperimentResult("x", "X", {"k": 1.5}, "text")
        )

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestGoldenFile:
    def test_reference_trace_entry_matches(self, golden, tmp_path):
        recorded = golden.load_golden()
        assert golden.check_trace_entry(recorded, tmp_path) == []

    def test_numpy_mismatch_compares_text_only(self, golden):
        result = ExperimentResult("fig0", "Fig 0", {"value": 1.0}, "one")
        digests = golden.experiment_digests({"fig0": result})
        recorded = {"numpy": "0.0", "experiments": digests}
        drifted = {"fig0": ExperimentResult("fig0", "Fig 0", {"value": 1.0 + 1e-15}, "one")}
        with pytest.warns(UserWarning, match="text only"):
            assert golden.check_experiments(recorded, drifted) == []
        retexted = {"fig0": ExperimentResult("fig0", "Fig 0", {"value": 1.0}, "two")}
        with pytest.warns(UserWarning):
            assert golden.check_experiments(recorded, retexted) == ["fig0: text digest changed"]

    def test_same_numpy_compares_data(self, golden):
        result = ExperimentResult("fig0", "Fig 0", {"value": 1.0}, "one")
        recorded = {"numpy": np.__version__, "experiments": golden.experiment_digests({"fig0": result})}
        drifted = {"fig0": ExperimentResult("fig0", "Fig 0", {"value": 1.0 + 1e-15}, "one")}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert golden.check_experiments(recorded, drifted) == ["fig0: data digest changed"]
