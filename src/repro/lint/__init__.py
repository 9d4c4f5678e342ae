"""Determinism linter + runtime sanitizer for the reproduction.

Every number this repo reproduces rests on one invariant: **a run is a
pure function of (config, seed), with sim-time as the only clock**.  This
package enforces it by machine instead of by reviewer vigilance:

* a stdlib-only, AST-based static analyzer (``repro lint``) with a rule
  registry, per-finding ``# repro: allow[rule-id] reason`` suppressions
  (audited — an allow without a reason, naming no rule, or silencing
  nothing is itself a finding), and text/JSON reporters;
* a runtime :class:`DeterminismSanitizer` that patches the global
  ``random`` module and wall-clock functions to raise — naming the call
  site — whenever repo or test code touches them during a sanitized run,
  and verifies ``PYTHONHASHSEED`` is pinned before multi-process runs.

Usage::

    from repro.lint import lint_paths, render_text
    report = lint_paths(["src"])
    print(render_text(report))      # exit_code() == 0 means clean

    from repro.lint import DeterminismSanitizer
    with DeterminismSanitizer():
        simulator.run()             # any wall-clock/global-RNG read raises

See LINTING.md for the rule catalog and how to add a rule.
"""

from repro.lint.findings import Finding, Suppression, parse_suppressions
from repro.lint.graph import ProjectGraph, build_project_graph, render_dot
from repro.lint.reporters import (
    LINT_SCHEMA_VERSION,
    render_json,
    render_text,
    report_to_payload,
    validate_lint_payload,
)
from repro.lint.rules import FileContext, Rule, register, rule_catalog
from repro.lint.runner import (
    LintReport,
    SuppressedFinding,
    lint_file,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.lint.sanitizer import (
    DeterminismSanitizer,
    DeterminismViolation,
    is_active,
    verify_hashseed_pinned,
)

__all__ = [
    "DeterminismSanitizer",
    "DeterminismViolation",
    "FileContext",
    "Finding",
    "LINT_SCHEMA_VERSION",
    "LintReport",
    "ProjectGraph",
    "Rule",
    "SuppressedFinding",
    "Suppression",
    "build_project_graph",
    "is_active",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "parse_suppressions",
    "register",
    "render_dot",
    "render_json",
    "render_text",
    "report_to_payload",
    "rule_catalog",
    "validate_lint_payload",
    "verify_hashseed_pinned",
]
