"""The whole-system fingerprint: the encoder, GOLDEN.json's reference trace
entry, and the numpy-version fallback of the checker.

Every experiment's digests are checked by
``tests/test_cli.py::TestCli::test_all_runs_every_experiment``, which
already runs ``--all``.  Table 1 and Figs 1-7 are also pinned at four
more seed/scale points here, where the trace kernels take other shapes.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.experiments import context
from repro.experiments.registry import ExperimentResult, fingerprint, run_experiment

#: The experiments that read the Periscope and Meerkat traces.
TRACE_EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

#: Their ``data`` and ``text`` fingerprints at ``(scale, seed)`` points
#: beside GOLDEN.json's default (0.0005, 2016), recorded on GOLDEN.json's
#: numpy version.
TRACE_ANALYSIS_DIGESTS = {
    (0.0005, 7): {
        "table1": {"data": "f49cf4f518350d876d50effd0806f303e6dd6b303063962c257dcb7124560eae", "text": "868ec86b13bb75b8e32bfe95f8c3673a8ed1c14824556795ddd8fd195700cda5"},
        "fig1": {"data": "2da1d848bcb08875a19d52b30a1bcd4a48df062c3af835d1f9dc42e776768352", "text": "839eac76df1693ee6748d6c31c5cc41324250ad271fa91986148190d7eff8a07"},
        "fig2": {"data": "5acd9fdec5a92921d8678197f9bcfb26e809fdc6a4872dbf76a9321712e4bb6f", "text": "885521c497f5ea65e24188f3f0609f3004133a9940ad97afa60aac817f80090a"},
        "fig3": {"data": "14e0e89de325fa48fbe4dedcc9324e02b11b94fefdd8ae337710e38114d2684f", "text": "daf9468496135f0c53e86e065f4ae2dd3b55477621ee3c5f6d9b5ea45635e958"},
        "fig4": {"data": "11d9aeab89e4d3b64ec14cec6304e0aa4e816021aeda3231a74b6d83432b4f1e", "text": "f571ea031fb5d85354e69176f28f32f57b19ed642bc51b3fd19d4e9e99473145"},
        "fig5": {"data": "ea9ccdc281d8e9134d63105ebe9907cab95fe9c6038e2b24cc47b41fa9de87b6", "text": "60a604f771f8057a2a6600f98984662b1b998215e5305ac1b93fb0508cc2ddda"},
        "fig6": {"data": "d6567babaaf84148ddb8ca106129dcced391c87cb3afd45d693462059d392384", "text": "4fce5ef6e9c02995f70ae9665ec1fbd2f85e009d3fd26f05303bc25317c9b2d7"},
        "fig7": {"data": "2c6d78c68351dbe47cdff895a50c1c2c15424a40c75a5f5c3cc3cf593151c954", "text": "2b2f7082f88b12571a40bf6f6baf3016edcf388d163375ef8e39aab75efb20a0"},
    },
    (0.0005, 1): {
        "table1": {"data": "153f8695ef27c0e9210b6c94653e9b01a4a41418b97c138a039ed6e73acda8a2", "text": "8d777a31790fcbf6219d9d26e353987920e16f133250611b65402854da329d01"},
        "fig1": {"data": "f07d9f7c1ac43423ea79f8f173b1aa5369391ff6e3b36ff643cce58dbf1ebc5e", "text": "b91e54c49cecc3282a386dc8ee99bdae4bbc45b30574728dba71e5dd21b7dd02"},
        "fig2": {"data": "383e9a129dc1d9b8b06e269a5567d10c33e08925a9499927a9e59fea32d78039", "text": "935e69478426701fbf3c89787727dcc6a429d6cae89beaac8d3e0aacb5851d11"},
        "fig3": {"data": "b9097186d0f64468ac195f366b299f85fd39af3fc1f7cd1674a8c90767fa8a98", "text": "29f8f4e5394afc925226656ae5321c1d4abbd6e62bc6fa5385dd3ff64b69873b"},
        "fig4": {"data": "74f876d58398972ba487812f2f5d039bc3b55ddccb35459b5384960dd9462aac", "text": "103553df138a7c842850f17db5978b805982c6bf8c003f181bcd28d49bb16123"},
        "fig5": {"data": "9ef995022c2b96377d0fe55f2da0e0cb123cb34356d84287b754aa7911034ee2", "text": "6c79f077c8706fdca538974373e91da4f653265d82cfbf0de394aa2e5f273580"},
        "fig6": {"data": "af3dc92abcb809c1fc5e2b943c09b67deccbbf945b0f8ce132eab07ead7f073a", "text": "0f3b6737a6fc08e1c82d99021898ce656d46118a846ea4361ba0e9ac1ca4298f"},
        "fig7": {"data": "c25983cb897c6a94ee5c8097d40e76033e2e2313b441b0c075f5743f9449a6a9", "text": "72380230e53fb4fd82e84607982398539276d4aad22cc6632bd8a8bf83deeadc"},
    },
    (0.002, 2016): {
        "table1": {"data": "a73bc888c6c8d475f81f3b15e30bfbcb8cc0cb5645ceb039c97523bcfd51b647", "text": "564ffd6a4584528b376762945df0fe32f217f717bb92d42b48537261c77e2ce2"},
        "fig1": {"data": "c4bbd611e1e77f74d1e06bf84f142f73f7f72b9e77a9507b0d5ba4df4f41e157", "text": "737a02c42ea671df25866fc655418adb1924922911836c9fc71ec4d0b4e920b1"},
        "fig2": {"data": "c6c991266fc1ccbebed4550caf353d9a4c584447d8a2ebf065aacbcf2fa2f1ab", "text": "56325a106e98305889edd441a8c2e380e782ceaa85a2876b555fd1a5f49dba08"},
        "fig3": {"data": "22fbe0cd16141d87a35b2c45e929e6ea589919c93c9f387479a80da57887bbd6", "text": "b4c9ff0404a284f1f25fc06dff9b992d15333af21c59a3c3c9df9983616acdcd"},
        "fig4": {"data": "3d3aaa34469c75214437b203212cf56fd245efba8b0caeebb34e51ca0176fded", "text": "1ef8610ff4450290ef9961832db83893d4d06ff45c9e8cb286e4dc9f0617dec8"},
        "fig5": {"data": "661e695c998bdb474f1d89d669370ec32d5440870bd2284cdd2b86f58632a235", "text": "b1473d16ad05b71f878d077282e8f7a0dffdac6679bf0cb944aa0ee325412265"},
        "fig6": {"data": "4779b37d6374661374e5899573af2afc13674803ea9c46d1c4915c980804ee6c", "text": "7c5349cbf5a68a13b50abbf9a3c1c2b57c8f76b128abec28108cd6c843eea89a"},
        "fig7": {"data": "b7ff0775ff2d33ed54e6f976b9bf3ef8437533b0ed42d0d9bff942358ffdffdd", "text": "787157cc9040bdd72e7fd1daf88e3daf7f7f3227d657778fffc88d475085ece0"},
    },
    (0.002, 7): {
        "table1": {"data": "39f06c6fa353e688861163f245df1854abfabd0859a8684da34631d4db9fc9a1", "text": "d0c0feeb1848c0acc199341edd841d210572f965c3a15dc39033cf92da82c49f"},
        "fig1": {"data": "f42326b6d6892ef90fdfefcacc085bbef24bbf04bd2dad56e7a242a3c9d05a62", "text": "e69d4f8b5503a516554cbf26949c1c06494e1c0337ce5b0e8d2ea853c0db7e88"},
        "fig2": {"data": "4e2045a0641087f85fb98db6c1c7d2cbe4c2708efc46350a2e7ef8221b781ec6", "text": "ad24810bee7013f8623fc871f69838709e9a067a8a7ffc0bcea25ef5d1251196"},
        "fig3": {"data": "2e02925b873cb91b7d0955daec13b51abeea57e6fe370c1c89730a3db199f2f5", "text": "f89a8ad3cc607f426e7ba0350e250d5fdca85eff2bc3a4f05f4e9f799f7627ee"},
        "fig4": {"data": "db5b231f8fd8686b6c17d5afc5e58cd40a2f1bc7e28c1fd2cb9eaefefab8ba7d", "text": "86d56d18d8a9b1c16c4d1dda8674de10eebf14e6ae583af82d822c839cb97436"},
        "fig5": {"data": "3bfe281460da5d7c163811a4d57fa11014a1469c87b67a569b23815e58d7ef1e", "text": "552f2b70c4609271b62f9e57b9d792503b8012b869878a9b9e5d808d7aaec33c"},
        "fig6": {"data": "0b076b50e4e7bdb022dcc6421fbfe3b4462224910852b6bc8876a4365fd573ac", "text": "2f15422b1a2b5cc92b37814023fa5a0407c8ec649e81391330cd7cfe111e9274"},
        "fig7": {"data": "c5158378391b24d90ed4be198406b3e971f518b5ff557cae6e41f96e68079656", "text": "c1612404a9428ad283e061809176b53dd5f39ae0daee588d5ff53bfe26591a4a"},
    },
}


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


class TestTraceAnalysisPins:
    @pytest.mark.parametrize("scale,seed", sorted(TRACE_ANALYSIS_DIGESTS))
    def test_trace_experiments_pinned(self, golden, monkeypatch, scale, seed):
        """Checked as GOLDEN.json checks an experiment: both digests on the
        recorded numpy version, the text alone (with a warning) on another."""
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        context.clear_caches()
        try:
            results = {
                exp_id: run_experiment(exp_id, scale=scale, seed=seed)
                for exp_id in TRACE_EXPERIMENTS
            }
        finally:
            context.clear_caches()
        recorded = {
            "numpy": golden.load_golden()["numpy"],
            "experiments": TRACE_ANALYSIS_DIGESTS[(scale, seed)],
        }
        assert golden.check_experiments(recorded, results) == []
