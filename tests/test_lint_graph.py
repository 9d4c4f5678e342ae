"""Tests for the whole-program lint passes (repro.lint.graph et al.).

Three layers of coverage:

1. **Graph mechanics** — module naming, relative-import resolution, and
   DOT rendering on small in-memory projects.
2. **Real-tree pins** — the committed tree's import graph is acyclic,
   the layering contract assigns the tiers DESIGN.md documents, and the
   service tier sits on the platform records, never the reverse.
3. **Acceptance, both directions** — the committed facade lints clean,
   while a storage→service module-scope import, or an upward import at
   module scope or inside a function, makes the linter exit 1 naming
   the responsible rule.
"""

from __future__ import annotations

from pathlib import Path


from repro.cli import main as repro_main
from repro.lint import (
    build_project_graph,
    lint_paths,
    lint_source,
    lint_sources,
    render_dot,
    render_text,
)
from repro.lint.architecture import tier_of
from repro.lint.graph import module_name_for
from repro.lint.runner import iter_python_files, parse_unit

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
FACADE_RELPATH = "src/repro/service/facade.py"


class TestGraphMechanics:
    def test_module_names_anchor_at_repro(self):
        assert module_name_for("src/repro/lint/graph.py") == ("repro.lint.graph", False)
        assert module_name_for("src/repro/platform/__init__.py") == (
            "repro.platform",
            True,
        )
        # Fixture trees re-rooted under a nested repro/ directory still map
        # into the repro.* namespace (anchored at the *last* component).
        assert module_name_for(
            "tests/lint_fixtures/bad_layering/repro/simulation/uses_experiments.py"
        ) == ("repro.simulation.uses_experiments", False)

    def test_relative_imports_resolve_to_siblings(self):
        units = [
            parse_unit("from .impl import helper\n__all__ = []\n", "pkg/__init__.py"),
            parse_unit("def helper():\n    return 1\n", "pkg/impl.py"),
        ]
        graph = build_project_graph([u.ctx for u in units])
        assert "pkg.impl" in graph.module_scope_edges()["pkg"]

    def test_cycle_detection_on_synthetic_two_cycle(self):
        units = [
            parse_unit("from b import beta\nalpha = 1\n", "a.py"),
            parse_unit("from a import alpha\nbeta = 2\n", "b.py"),
        ]
        graph = build_project_graph([u.ctx for u in units])
        assert graph.cycles() == [("a", "b")]

    def test_summary_counts(self):
        units = [
            parse_unit("import b\n", "a.py"),
            parse_unit("x = 1\n", "b.py"),
        ]
        graph = build_project_graph([u.ctx for u in units])
        assert graph.summary() == {"modules": 2, "import_edges": 1, "cycles": 0}


class TestRealTreePins:
    def test_src_import_graph_is_acyclic(self, tree_lint):
        """Acceptance pin: the real tree has no module-scope import cycle."""
        report = tree_lint.report
        assert report.graph is not None
        assert report.graph.cycles() == []
        assert report.project["cycles"] == 0

    def test_graph_covers_the_whole_tree(self, tree_lint):
        assert tree_lint.report.project["modules"] >= 100
        assert tree_lint.report.project["import_edges"] >= 300

    def test_layering_contract_tiers(self):
        """The tiers DESIGN.md documents; a module's tier is its package's."""
        assert tier_of("repro.geo.distance") == 0
        assert tier_of("repro.lint.graph") == 0
        assert tier_of("repro.simulation.engine") == 1
        assert tier_of("repro.simulation.resilience") == 1
        assert tier_of("repro.cdn.edge") == 2
        assert tier_of("repro.platform.broadcasts") == 3
        assert tier_of("repro.service.facade") == 3
        assert tier_of("repro.service.errors") == 3
        assert tier_of("repro.analysis.sessions") == 4
        assert tier_of("repro.faults.injector") == 5
        assert tier_of("repro.experiments.metrics_scenario") == 6
        assert tier_of("repro.experiments.registry") == 6
        assert tier_of("repro.cli") == 7
        assert tier_of("repro") == 7

    def test_render_dot_real_tree(self, tree_lint):
        dot = render_dot(tree_lint.report.graph, tier_of=tier_of)
        assert dot.startswith("digraph repro_imports {")
        assert '"repro.platform"' in dot and '"repro.service"' in dot
        # The service tier operates on the platform records; the platform
        # package never reaches back up into it.
        assert '"repro.service" -> "repro.platform"' in dot
        assert '"repro.platform" -> "repro.service"' not in dot
        # Tier clusters exist so the diagram reads bottom-up.
        assert "cluster_tier_0" in dot and "cluster_tier_7" in dot


class TestFacadeAcceptance:
    """The issue's acceptance criterion, test-enforced in both directions."""

    def test_committed_facade_is_clean(self):
        source = (REPO_ROOT / FACADE_RELPATH).read_text(encoding="utf-8")
        report = lint_source(source, FACADE_RELPATH)
        assert report.exit_code() == 0, "\n" + render_text(report)

    def test_storage_importing_the_service_tier_fails(self):
        """Adding a storage→service module-scope import to the *real*
        service and platform sources closes the loop services→store
        already has: import-cycle."""
        sources = {}
        packages = [REPO_ROOT / "src" / "repro" / name for name in ("service", "platform")]
        for path in iter_python_files(packages):
            relpath = path.resolve().relative_to(REPO_ROOT).as_posix()
            sources[relpath] = path.read_text(encoding="utf-8")
        sources["src/repro/service/store.py"] += (
            "\nfrom repro.service.services import FaultGate\n"
        )
        report = lint_sources(sources)
        assert report.exit_code() == 1
        assert "import-cycle" in report.by_rule(), report.by_rule()
        cycle_paths = {
            finding.path
            for finding in report.findings
            if finding.rule_id == "import-cycle"
        }
        assert "src/repro/service/store.py" in cycle_paths

    def test_low_tier_importing_high_tier_fails(self):
        """A foundation module importing the orchestration tier is a
        layering violation even when the target is not in the lint set,
        and deferring an upward import into a function does not exempt
        it (only ``TYPE_CHECKING`` imports are)."""
        report = lint_sources(
            {
                "src/repro/geo/bad.py": (
                    "from repro.parallel.generate import generate_trace\n"
                    "\n"
                    "GEN = generate_trace\n"
                )
            }
        )
        assert report.exit_code() == 1
        assert report.by_rule() == {"layering-violation": 1}, report.by_rule()

        fixture = lint_paths([FIXTURES / "bad_layering"])
        assert fixture.by_rule() == {"layering-violation": 2}, fixture.by_rule()
        deferred = [f for f in fixture.findings if f.path.endswith("defers_faults.py")]
        assert len(deferred) == 1 and "inside a function" in deferred[0].message


class TestChangedMode:
    def test_changed_narrows_reporting_to_listed_files(self, monkeypatch, capsys):
        import repro.lint.cli as lint_cli

        monkeypatch.setattr(
            lint_cli,
            "_git_changed_files",
            lambda: [FIXTURES / "bad_wall_clock.py"],
        )
        rc = repro_main(["lint", "--changed", str(FIXTURES)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "(changed files only)" in out
        assert "bad_wall_clock.py" in out
        assert "bad_fsum.py" not in out  # parsed into the graph, not reported

    def test_changed_with_nothing_changed_is_clean(self, monkeypatch, capsys):
        import repro.lint.cli as lint_cli

        monkeypatch.setattr(lint_cli, "_git_changed_files", lambda: [])
        rc = repro_main(["lint", "--changed", str(FIXTURES)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 file(s)" in out

    def test_changed_falls_back_to_full_tree_without_git(self, monkeypatch, capsys):
        import repro.lint.cli as lint_cli

        monkeypatch.setattr(lint_cli, "_git_changed_files", lambda: None)
        rc = repro_main(["lint", "--changed", str(FIXTURES / "bad_fsum.py")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "(changed files only)" not in out

    def test_git_helper_degrades_gracefully(self, monkeypatch, tmp_path):
        """Outside a checkout (or with git missing) the helper returns
        None rather than raising; the CLI then lints the full tree."""
        import repro.lint.cli as lint_cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))  # no git binary findable
        assert lint_cli._git_changed_files() is None


class TestGraphDotCli:
    def test_graph_dot_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "graph.dot"
        rc = repro_main(
            ["lint", "--graph-dot", str(out_file), str(FIXTURES / "good_clean.py")]
        )
        capsys.readouterr()
        assert rc == 0
        assert out_file.read_text(encoding="utf-8").startswith(
            "digraph repro_imports {"
        )

    def test_graph_dot_to_stdout(self, capsys):
        rc = repro_main(["lint", "--graph-dot", "-", str(FIXTURES / "good_clean.py")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "digraph repro_imports {" in out
