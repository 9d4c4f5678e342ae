"""RNG-stream dataflow pass (rule ``rng-escapes-to-global``).

The determinism invariant — a run is a pure function of (config, seed) —
dies when an RNG stream escapes into module-global state: draw order then
starts depending on import order and call history, which the per-file
rules cannot see.

The pass is conservative taint tracking over the ASTs: a value is an
*RNG stream* if it comes from ``numpy.random.default_rng`` /
``Generator`` construction, a ``RandomStreams`` instance, or a
``.spawn()`` / ``.get()`` call on an already-tainted value; taint follows
simple assignments within a scope and parameter annotations naming
``Generator`` / ``RandomStreams``.  Sequential reuse of one stream inside
a loop is *sanctioned* (event-order draws are the repo's idiom) — only
module-global storage is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.graph import ProjectGraph
from repro.lint.rules import ProjectRule, register_project

#: Callable names that construct an RNG stream when called directly.
_RNG_FACTORY_NAMES = frozenset({"default_rng", "RandomStreams"})
#: Attribute calls that construct a stream regardless of receiver.
_RNG_FACTORY_ATTRS = frozenset({"default_rng", "RandomStreams", "spawn"})
#: Annotation names that mark a parameter as carrying a stream.
_RNG_ANNOTATION_NAMES = frozenset({"Generator", "RandomStreams"})


def _annotation_names(annotation: Optional[ast.expr]) -> set[str]:
    if annotation is None:
        return set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(annotation)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def _is_rng_expr(node: ast.expr, tainted: set[str]) -> bool:
    """Conservatively: does this expression produce an RNG stream?"""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _RNG_FACTORY_NAMES:
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _RNG_FACTORY_ATTRS:
                return True
            # stream.get("name") taints only when the receiver is tainted
            # (plain dict.get must not).
            if func.attr == "get" and _is_rng_expr(func.value, tainted):
                return True
    return False


def _tainted_names(func: ast.AST) -> set[str]:
    """Names carrying an RNG stream inside ``func`` (fixed point)."""
    tainted: set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        ):
            if _annotation_names(arg.annotation) & _RNG_ANNOTATION_NAMES:
                tainted.add(arg.arg)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            value = None
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not _is_rng_expr(value, tainted):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in tainted:
                    tainted.add(target.id)
                    changed = True
    return tainted


def _function_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register_project
class RngEscapesToGlobalRule(ProjectRule):
    """A stream stored in a module global couples every consumer's draw
    order to import order and call history; streams must be created inside
    the run and passed explicitly (or drawn from seed-derived substreams —
    :class:`repro.simulation.randomness.RandomStreams`)."""

    rule_id = "rng-escapes-to-global"
    description = "RNG stream stored in module-global state"

    def check(self, graph: ProjectGraph) -> Iterator[Finding]:
        for name in sorted(graph.modules):
            info = graph.modules[name]
            module_tainted: set[str] = set()
            for node in info.tree.body:
                value = None
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    value, targets = node.value, node.targets
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    value, targets = node.value, [node.target]
                if value is None or not _is_rng_expr(value, module_tainted):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        module_tainted.add(target.id)
                yield Finding(
                    path=info.relpath,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule_id=self.rule_id,
                    message=(
                        "RNG stream assigned at module scope; create streams "
                        "inside the run and pass them explicitly"
                    ),
                )
            for func in _function_nodes(info.tree):
                declared: set[str] = set()
                for node in ast.walk(func):
                    if isinstance(node, ast.Global):
                        declared.update(node.names)
                if not declared:
                    continue
                tainted = _tainted_names(func)
                for node in ast.walk(func):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in declared
                            and _is_rng_expr(node.value, tainted)
                        ):
                            yield Finding(
                                path=info.relpath,
                                line=node.lineno,
                                col=node.col_offset + 1,
                                rule_id=self.rule_id,
                                message=(
                                    f"RNG stream escapes to module global "
                                    f"'{target.id}' via a global statement"
                                ),
                            )
