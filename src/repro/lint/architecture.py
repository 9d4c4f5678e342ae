"""The declared layering contract, and the rules that enforce it.

The repo's subsystems form a tier stack; a module may import only from its
own tier or below, at module scope or inside a function alike.  Only
``TYPE_CHECKING`` imports are exempt, since they never run.  Module-scope
cycles are forbidden outright.

The tiers (bottom to top)::

    7  entrypoints     repro, repro.cli, repro.validation, repro.__main__
    6  experiments     experiments
    5  orchestration   faults, parallel
    4  measurement     analysis, core, crawler, overlay, security, workload
    3  platform        platform, service
    2  delivery        cdn, client
    1  kernel          simulation
    0  foundation      geo, lint, obs, protocols, social

A module's tier is its package's; there are no per-module exceptions.

Rules enforced here: ``import-cycle``, ``layering-violation``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.graph import ProjectGraph
from repro.lint.rules import ProjectRule, register_project

ROOT_PACKAGE = "repro"

#: Layer names by tier level, for findings and the DOT export.
TIER_NAMES = {
    0: "foundation",
    1: "kernel",
    2: "delivery",
    3: "platform",
    4: "measurement",
    5: "orchestration",
    6: "experiments",
    7: "entrypoints",
}

#: ``repro`` subpackage -> tier level.
PACKAGE_TIERS = {
    "geo": 0,
    "lint": 0,
    "obs": 0,
    "protocols": 0,
    "social": 0,
    "simulation": 1,
    "cdn": 2,
    "client": 2,
    "platform": 3,
    "service": 3,
    "analysis": 4,
    "core": 4,
    "crawler": 4,
    "overlay": 4,
    "security": 4,
    "workload": 4,
    "faults": 5,
    "parallel": 5,
    "experiments": 6,
}

#: Top-level ``repro`` modules (and the root package itself) sit above
#: everything: they may import any tier.
ENTRYPOINT_TIER = 7


def tier_of(module: str) -> Optional[int]:
    """The tier level of a dotted module name; ``None`` outside the contract."""
    parts = module.split(".")
    if parts[0] != ROOT_PACKAGE:
        return None
    if len(parts) == 1:
        return ENTRYPOINT_TIER
    return PACKAGE_TIERS.get(parts[1], ENTRYPOINT_TIER)


def tier_label(module: str) -> str:
    tier = tier_of(module)
    if tier is None:
        return "unranked"
    return f"tier {tier} '{TIER_NAMES[tier]}'"


@register_project
class ImportCycleRule(ProjectRule):
    """Module-scope import cycles deadlock initialization and make import
    order observable.  Every member of a cycle is flagged, at its first
    import of another member."""

    rule_id = "import-cycle"
    description = "module-scope import cycle between analyzed modules"

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for component in graph.cycles():
            members = set(component)
            path = " -> ".join(component + (component[0],))
            for name in component:
                info = graph.modules[name]
                anchor_line, anchor_col = 1, 1
                for record in info.imports:
                    if not record.module_scope:
                        continue
                    resolved = graph.resolve_target(record)
                    if resolved is not None and resolved.name in members:
                        anchor_line, anchor_col = record.line, record.col
                        break
                yield Finding(
                    path=info.relpath,
                    line=anchor_line,
                    col=anchor_col,
                    rule_id=self.rule_id,
                    message=f"module-scope import cycle: {path}",
                )


@register_project
class LayeringViolationRule(ProjectRule):
    """A module may import only from its own tier or below, whether the
    import runs at module scope or inside a function; only ``TYPE_CHECKING``
    imports, which never run, are exempt.  The target's tier comes from its
    dotted name, so the rule bites even when the target file is outside the
    linted path set."""

    rule_id = "layering-violation"
    description = (
        "import points up the layering contract "
        "(see repro.lint.architecture)"
    )

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for name, info in sorted(graph.modules.items()):
            source_tier = tier_of(name)
            if source_tier is None:
                continue
            for record in info.imports:
                if record.type_checking or not record.target:
                    continue
                target_tier = tier_of(record.target)
                if target_tier is None or target_tier <= source_tier:
                    continue
                scope = "inside a function" if record.deferred else "at module scope"
                yield Finding(
                    path=info.relpath,
                    line=record.line,
                    col=record.col,
                    rule_id=self.rule_id,
                    message=(
                        f"{name} ({tier_label(name)}) imports {record.target} "
                        f"({tier_label(record.target)}) {scope}; move the "
                        "dependency down the stack"
                    ),
                )
