"""Tests for the determinism linter (repro.lint).

Fixture files under ``tests/lint_fixtures/`` each violate exactly one rule
class; the suite asserts the linter flags every one of them (non-zero exit
through the real CLI), stays clean on the repo's own ``src/``,
``benchmarks/`` and ``examples/`` trees, audits suppressions, emits
schema-valid JSON, and finishes the full tree inside the 6-second budget.
The whole-program passes (import graph, layering, dataflow, exports) have
their own suite in ``tests/test_lint_graph.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    lint_paths,
    lint_source,
    parse_suppressions,
    render_text,
    rule_catalog,
    validate_lint_payload,
)
from repro.lint.rules import ast_rules, project_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: fixture file -> rule ids the linter must report for it.
FIXTURE_EXPECTATIONS = {
    "bad_unseeded_random.py": {"unseeded-random"},
    "bad_wall_clock.py": {"wall-clock"},
    "bad_set_iteration.py": {"unordered-set-iteration"},
    "bad_swallowed_exception.py": {"swallowed-exception"},
    "bad_missing_all/__init__.py": {"missing-all"},
    "bad_fsum.py": {"fsum-required"},
    # Whole-program passes (one rule apiece; see tests/test_lint_graph.py).
    "bad_import_cycle": {"import-cycle"},
    "bad_layering": {"layering-violation"},
    "bad_rng_global.py": {"rng-escapes-to-global"},
    "bad_export_drift": {"export-drift"},
    "bad_suppressions.py": {
        "wall-clock",
        "suppression-missing-reason",
        "unknown-suppression",
        "unused-suppression",
    },
}


class TestFixtureFiles:
    @pytest.mark.parametrize("fixture,expected", sorted(FIXTURE_EXPECTATIONS.items()))
    def test_each_fixture_fails_with_its_rule(self, fixture, expected):
        report = lint_paths([FIXTURES / fixture])
        assert report.exit_code() == 1
        assert expected <= set(report.by_rule()), (
            f"{fixture}: wanted {sorted(expected)}, got {report.by_rule()}"
        )

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_EXPECTATIONS))
    def test_each_fixture_fails_through_the_cli(self, fixture, capsys):
        rc = repro_main(["lint", str(FIXTURES / fixture)])
        capsys.readouterr()
        assert rc == 1

    def test_clean_fixture_passes(self):
        report = lint_paths([FIXTURES / "good_clean.py"])
        assert report.clean, render_text(report)
        assert report.exit_code() == 0
        assert len(report.suppressed) == 1
        assert "integer counts" in report.suppressed[0].reason

    def test_every_registered_rule_has_a_single_rule_fixture(self):
        """Every AST and whole-program rule in the registry has a fixture
        violating it alone (meta rules are exercised by
        ``bad_suppressions.py`` and ``TestSuppressionMechanics``)."""
        covered = {
            rule_id
            for expected in FIXTURE_EXPECTATIONS.values()
            if len(expected) == 1
            for rule_id in expected
        }
        registered = {rule.rule_id for rule in (*ast_rules(), *project_rules())}
        assert covered == registered


class TestRepoBaseline:
    def test_src_and_benchmarks_are_clean(self, tree_lint):
        """Acceptance: repro lint src benchmarks examples exits 0."""
        assert tree_lint.report.clean, "\n" + render_text(tree_lint.report)

    def test_every_suppression_in_src_has_a_reason(self):
        """Acceptance: every suppression in src/ carries a reason string."""
        missing = []
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for suppression in parse_suppressions(path.read_text(encoding="utf-8")):
                if not suppression.reason:
                    missing.append(f"{path}:{suppression.line}")
        assert not missing, f"suppressions without reasons: {missing}"

    def test_full_tree_within_runtime_budget(self, tree_lint):
        """CI budget: the full-tree lint — whole-program passes included —
        must stay under 6 seconds (measured 2.5–4.6 s on a 2-vCPU host)."""
        elapsed = tree_lint.seconds
        assert elapsed < 6.0, f"lint took {elapsed:.2f}s (budget 6s)"


class TestSuppressionMechanics:
    def test_same_line_suppression_with_reason(self):
        source = "import time\nx = time.time()  # repro: allow[wall-clock] test apparatus\n"
        report = lint_source(source, "sample.py")
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].reason == "test apparatus"

    def test_standalone_suppression_covers_next_line(self):
        source = (
            "import time\n"
            "# repro: allow[wall-clock] covers the following statement\n"
            "x = time.time()\n"
        )
        report = lint_source(source, "sample.py")
        assert report.clean
        assert len(report.suppressed) == 1

    def test_reasonless_suppression_keeps_finding_and_adds_one(self):
        source = "import time\nx = time.time()  # repro: allow[wall-clock]\n"
        report = lint_source(source, "sample.py")
        assert set(report.by_rule()) == {"wall-clock", "suppression-missing-reason"}

    def test_unknown_rule_id_is_a_finding(self):
        report = lint_source("x = 1  # repro: allow[bogus-rule] why not\n", "sample.py")
        assert set(report.by_rule()) == {"unknown-suppression"}

    def test_unused_suppression_is_a_finding(self):
        report = lint_source("x = 1  # repro: allow[wall-clock] stale\n", "sample.py")
        assert set(report.by_rule()) == {"unused-suppression"}

    def test_syntax_in_docstrings_is_not_a_suppression(self):
        source = '"""Docs show # repro: allow[wall-clock] example usage."""\nx = 1\n'
        report = lint_source(source, "sample.py")
        assert report.clean

    def test_parse_error_is_a_finding(self):
        report = lint_source("def broken(:\n", "sample.py")
        assert set(report.by_rule()) == {"parse-error"}


class TestRuleEdges:
    def test_sorted_set_iteration_is_compliant(self):
        """The delay_crawler idiom: sorted() makes the intersection legal."""
        source = (
            "def f(ready, avail):\n"
            "    return [i for i in sorted(set(ready) & set(avail))]\n"
        )
        assert lint_source(source, "sample.py").clean

    def test_bare_set_intersection_iteration_is_flagged(self):
        """Drop the sorted() from the delay_crawler idiom and lint fails."""
        source = "def f(ready, avail):\n    return [i for i in set(ready) & set(avail)]\n"
        assert lint_source(source, "sample.py").by_rule() == {
            "unordered-set-iteration": 1
        }

    def test_hash_derived_seed_is_flagged(self):
        """The interactivity bug: hash(str) is salted per process."""
        source = (
            "import numpy as np\n"
            "def tier_rng(seed, tier):\n"
            "    return np.random.default_rng(seed + hash(tier) % 1000)\n"
        )
        report = lint_source(source, "sample.py")
        assert report.by_rule() == {"unseeded-random": 1}
        assert "substream_seed" in report.findings[0].message

    def test_perf_counter_allowed_in_timing_sites(self):
        source = "import time\nstarted = time.perf_counter()\n"
        assert lint_source(source, "src/repro/cli.py").clean
        assert lint_source(source, "benchmarks/test_foo.py").clean
        assert not lint_source(source, "src/repro/simulation/engine.py").clean

    def test_except_with_reraise_is_compliant(self):
        source = (
            "def f(step):\n"
            "    try:\n"
            "        step()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert lint_source(source, "sample.py").clean

    def test_dict_values_iteration_is_compliant(self):
        """Dicts iterate in insertion order — deterministic, not flagged."""
        source = "def f(d):\n    return [v for v in d.values()]\n"
        assert lint_source(source, "sample.py").clean

    def test_missing_all_variants(self):
        assert lint_source("x = 1\n", "pkg/__init__.py").by_rule() == {"missing-all": 1}
        assert lint_source('__all__ = []\n', "pkg/__init__.py").by_rule() == {
            "missing-all": 1
        }
        assert lint_source('__all__ = ["ghost"]\n', "pkg/__init__.py").by_rule() == {
            "missing-all": 1
        }
        assert lint_source(
            '__all__ = ["x", "x"]\nx = 1\n', "pkg/__init__.py"
        ).by_rule() == {"missing-all": 1}
        assert lint_source('__all__ = ["x"]\nx = 1\n', "pkg/__init__.py").clean
        # Plain modules are not required to define __all__.
        assert lint_source("x = 1\n", "pkg/module.py").clean

    def test_numpy_default_rng_is_compliant(self):
        """Seeded numpy generators are the sanctioned RNG — inside a
        function; a module-global stream is its own rule's business."""
        source = (
            "import numpy as np\n"
            "def draw():\n"
            "    rng = np.random.default_rng(7)\n"
            "    return rng.random()\n"
        )
        assert lint_source(source, "sample.py").clean

    def test_module_global_rng_is_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert lint_source(source, "sample.py").by_rule() == {
            "rng-escapes-to-global": 1
        }


class TestJsonSchema:
    def test_cli_json_output_validates(self, capsys):
        """Acceptance: repro lint --json emits the versioned, valid schema."""
        rc = repro_main(["lint", "--json", str(FIXTURES / "bad_wall_clock.py")])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        validate_lint_payload(payload)
        assert payload["summary"]["clean"] is False
        assert any(f["rule"] == "wall-clock" for f in payload["findings"])
        assert all(
            {"rule", "path", "line", "col", "message"} <= f.keys()
            for f in payload["findings"]
        )

    def test_clean_json_output_validates(self, capsys):
        rc = repro_main(["lint", "--json", str(FIXTURES / "good_clean.py")])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        validate_lint_payload(payload)
        assert payload["summary"]["clean"] is True
        assert payload["summary"]["suppressed"] == 1

    def test_validator_rejects_broken_payloads(self, capsys):
        repro_main(["lint", "--json", str(FIXTURES / "good_clean.py")])
        payload = json.loads(capsys.readouterr().out)
        for breakage in (
            lambda p: p.pop("schema_version"),
            lambda p: p.__setitem__("tool", "not-repro-lint"),
            lambda p: p["summary"].__setitem__("findings", 99),
            lambda p: p["suppressed"][0].__setitem__("reason", ""),
            lambda p: p.pop("project"),
            lambda p: p["project"].__setitem__("modules", -1),
        ):
            broken = json.loads(json.dumps(payload))
            breakage(broken)
            with pytest.raises(ValueError):
                validate_lint_payload(broken)

    def test_rule_catalog_covers_all_reported_rules(self):
        ids = {entry["id"] for entry in rule_catalog()}
        for expected in FIXTURE_EXPECTATIONS.values():
            assert expected <= ids


class TestCli:
    def test_list_rules(self, capsys):
        rc = repro_main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        listed = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert listed == [entry["id"] for entry in rule_catalog()]

    def test_missing_path_is_usage_error(self, capsys):
        rc = repro_main(["lint", "no/such/path.py"])
        capsys.readouterr()
        assert rc == 2

    def test_text_report_names_location_and_rule(self, capsys):
        rc = repro_main(["lint", str(FIXTURES / "bad_fsum.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[fsum-required]" in out
        assert "bad_fsum.py:5:" in out

    def test_module_entry_point(self):
        """python -m repro lint works end to end on the clean control file."""
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(FIXTURES / "good_clean.py")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout
