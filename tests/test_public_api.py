"""API-surface regression tests.

Every subpackage's ``__all__`` must resolve to a real attribute, and the
documented entry points must exist — so a refactor cannot silently break
the public API the README and examples rely on.  Names that moved to a
lower tier resolve at their new homes only: no old module path or
package re-export survives.
"""

from __future__ import annotations

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
]

#: Module paths that moved to another tier, with no shim left behind.
GONE_MODULES = [
    "repro.platform.service",
    "repro.faults.resilience",
    "repro.crawler.rate_limit",
    "repro.obs.scenario",
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
    "repro.crawler": ["TokenBucket", "RateLimitExceeded"],
}


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
