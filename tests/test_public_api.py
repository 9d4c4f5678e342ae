"""API-surface regression tests.

Every subpackage's ``__all__`` must resolve to a real attribute, and the
documented entry points must exist — so a refactor cannot silently break
the public API the README and examples rely on.  Names that moved to a
lower tier resolve at their new homes only: no old module path or
package re-export survives.  Deleted second implementations stay
deleted: a re-added twin fails here.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.simulation",
    "repro.geo",
    "repro.social",
    "repro.platform",
    "repro.workload",
    "repro.protocols",
    "repro.cdn",
    "repro.client",
    "repro.crawler",
    "repro.faults",
    "repro.obs",
    "repro.parallel",
    "repro.lint",
    "repro.service",
    "repro.core",
    "repro.overlay",
    "repro.security",
    "repro.analysis",
    "repro.experiments",
]


#: Dotted names that must resolve, at the homes their tiers give them.
HOMES = [
    "repro.service.LivestreamService",
    "repro.simulation.RetryPolicy",
    "repro.simulation.CircuitBreaker",
    "repro.simulation.TokenBucket",
    "repro.simulation.RateLimitExceeded",
    "repro.experiments.metrics_scenario.run_metrics_scenario",
    "repro.social.CompiledGraph",
]

#: Module paths that moved to another tier or were deleted with the
#: test-only second implementation they held; no shim is left behind.
GONE_MODULES = [
    "repro.platform.service",
    "repro.faults.resilience",
    "repro.crawler.rate_limit",
    "repro.obs.scenario",
    "repro.core.full_broadcast",
    "repro.workload.viewers",
    "repro.protocols.m3u8",
    "repro.analysis.exports",
]

#: Old package-level re-exports of the moved names: package -> names.
GONE_EXPORTS = {
    "repro.platform": [
        "LivestreamService",
        "GlobalListPage",
        "ServiceError",
        "ServiceUnavailable",
    ],
    "repro.faults": [
        "RetryPolicy",
        "CircuitBreaker",
        "EdgeUnavailable",
        "ServiceUnavailable",
    ],
    "repro.crawler": ["TokenBucket", "RateLimitExceeded", "save_traces", "load_traces"],
    # One follow-graph representation: the CSR ``CompiledGraph``.
    "repro.social": ["FollowGraph", "AnyFollowGraph", "generate_follow_graph_compiled"],
    # Forks, helpers and test-only second implementations no caller reached.
    "repro.workload": ["BroadcastParams", "ViewerArrivalModel"],
    "repro.protocols": [
        "HlsPollSchedule",
        "M3u8ParseError",
        "MediaPlaylist",
        "parse_playlist",
        "playlist_to_chunklist",
        "render_chunklist",
    ],
    "repro.parallel": ["validate_environment"],
    "repro.core": ["FullBroadcastSimulation", "FullBroadcastResult", "TierOutcome"],
    "repro.analysis": [
        "export_cdf_csv",
        "export_series_csv",
        "export_table_csv",
        "load_csv_columns",
    ],
    "repro.lint": ["sanitized"],
}

#: Second copies deleted outright, with no alias left: module -> names.
GONE_ATTRIBUTES = {
    "repro.social.graph": ["FollowGraph", "AnyFollowGraph"],
    "repro.social.generation": ["generate_follow_graph_compiled"],
    "repro.social.metrics": ["_compiled"],
    "repro.service.store": ["DEFAULT_N_SHARDS"],
    "repro.workload.broadcast_model": ["BroadcastParams"],
    "repro.protocols.hls": ["HlsPollSchedule"],
    "repro.parallel.generate": [
        "validate_environment",
        "MIN_PER_WORKER_ENV",
        "SHARD_RETRIES_ENV",
        "SHARD_DEADLINE_ENV",
        "POOL_REBUILDS_ENV",
        "_COLUMN_FIELDS",
    ],
    "repro.overlay.tree": ["nearest_pop"],
    "repro.lint.sanitizer": ["active_sanitizer_note", "sanitized"],
    "repro.crawler.storage": ["save_traces", "load_traces"],
    "repro.core.playback": ["_STRATEGIES", "_simulate_fixed"],
}

#: Methods, properties and fields deleted from a class: "module:Class" -> names.
GONE_MEMBERS = {
    "repro.workload.broadcast_model:BroadcastParamsModel": [
        "sample",
        "sample_duration",
        "sample_audience",
        "sample_engagement",
        "private_prob",
    ],
    "repro.client.network:LastMileLink": ["serialization_s_per_kb"],
    "repro.client.viewer_client:HlsViewerClient": ["chunk_kb"],
    "repro.parallel.checkpoint:RunCheckpoint": ["is_done", "total_shards"],
    "repro.cdn.fastly:FastlyEdge": ["breaker_for", "render_playlist"],
    "repro.service.frontend:ServiceFrontend": ["in_flight"],
    "repro.overlay.tree:ForwardingNode": ["is_leaf", "path_to_root"],
    "repro.protocols.messages:MessageChannel": ["subscriber_count"],
    "repro.experiments.registry:ExperimentResult": ["paper_expectation"],
    "repro.core.playback:PlaybackConfig": ["strategy"],
    "repro.core.playback:PlaybackResult": ["played", "discarded_count"],
    "repro.cdn.wowza:WowzaIngest": ["rtmp_subscriber_count"],
}

#: Parameters deleted from a callable: "module:qualified.name" -> names.
GONE_PARAMETERS = {
    "repro.client.network:LastMileLink.send": ["size_kb"],
    "repro.parallel.merge:stream_merge_shards": ["verify_order"],
    "repro.core.playback:sweep_prebuffer": ["strategy"],
}


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    obj = importlib.import_module(module_name)
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


class TestPublicApi:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert exported, f"{package_name} exports nothing"
        for name in exported:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_has_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    def test_documented_entry_points(self):
        import repro

        assert callable(repro.run_experiment)
        assert callable(repro.list_experiments)
        assert isinstance(repro.__version__, str)

    def test_public_classes_have_docstrings(self):
        """Every exported class/function carries a doc comment."""
        undocumented = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                obj = getattr(package, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{package_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_cli_module_importable(self):
        from repro import cli

        parser = cli.build_parser()
        assert parser.prog == "repro"

    def test_validation_module_importable(self):
        from repro import validation

        assert len(validation.CLAIMS) >= 20

    @pytest.mark.parametrize("dotted", HOMES)
    def test_names_resolve_at_their_homes(self, dotted):
        module_name, name = dotted.rsplit(".", 1)
        assert hasattr(importlib.import_module(module_name), name)

    @pytest.mark.parametrize("module_name", GONE_MODULES)
    def test_moved_modules_are_gone(self, module_name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)

    @pytest.mark.parametrize("package_name", sorted(GONE_EXPORTS))
    def test_no_package_reexports_moved_names(self, package_name):
        package = importlib.import_module(package_name)
        for name in GONE_EXPORTS[package_name]:
            assert name not in package.__all__
            assert not hasattr(package, name), f"{package_name}.{name}"

    @pytest.mark.parametrize("module_name", sorted(GONE_ATTRIBUTES))
    def test_deleted_second_copies_are_gone(self, module_name):
        module = importlib.import_module(module_name)
        for name in GONE_ATTRIBUTES[module_name]:
            assert not hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("owner", sorted(GONE_MEMBERS))
    def test_deleted_members_are_gone(self, owner):
        cls = _resolve(owner)
        for name in GONE_MEMBERS[owner]:
            assert not hasattr(cls, name), f"{owner}.{name}"
        if dataclasses.is_dataclass(cls):
            fields = {field.name for field in dataclasses.fields(cls)}
            assert not fields & set(GONE_MEMBERS[owner]), owner

    @pytest.mark.parametrize("target", sorted(GONE_PARAMETERS))
    def test_deleted_parameters_are_gone(self, target):
        parameters = inspect.signature(_resolve(target)).parameters
        for name in GONE_PARAMETERS[target]:
            assert name not in parameters, f"{target}({name}=)"
