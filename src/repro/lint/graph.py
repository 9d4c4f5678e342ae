"""Whole-program import graph and symbol table for :mod:`repro.lint`.

The per-file rules in :mod:`repro.lint.checks` see one AST at a time; the
architecture and dataflow passes need the *project*: which module imports
which, at module scope or deferred, and what names each module binds at its
top level.  This module builds that picture from the very ASTs the runner
already parsed — no imports are executed, no files re-read.

Vocabulary (used by every project rule):

* **module name** — the dotted runtime name, derived from the file path
  anchored at the last path component named ``repro`` (so both
  ``src/repro/cdn/fastly.py`` and a fixture's ``repro/cdn/fastly.py`` map
  to ``repro.cdn.fastly``); files outside any ``repro`` tree keep their
  dotted path.  A package's ``__init__.py`` *is* the package module.
* **module-scope import** — executed when the module is imported; these
  are the edges that can deadlock initialization and the only ones the
  cycle rule counts.
* **deferred import** — inside a function body: executed at call time.
  It cannot deadlock initialization, but it still runs, so the layering
  rule counts it (see :mod:`repro.lint.architecture`).
* **typing-only import** — under ``if TYPE_CHECKING:``: never executed,
  exempt from cycle and layering checks but still resolution-checked.

Cycle detection is Tarjan's strongly-connected-components pass over the
module-scope edges.  Implicit parent-package edges (importing ``a.b.c``
executes ``a/__init__.py`` first) are deliberately *not* modeled: every
re-exporting package would form a Python-legal two-cycle with each of its
submodules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

#: Path component that anchors dotted module names (see module docstring).
ROOT_COMPONENT = "repro"


@dataclass(frozen=True)
class ImportRecord:
    """One ``import``/``from ... import`` statement, resolved and classified."""

    target: str  # absolute dotted module the statement names ("" if unresolvable)
    names: tuple[tuple[str, str], ...]  # (original, local) pairs; () for plain import
    line: int
    col: int
    deferred: bool  # inside a function body: runs at call time
    type_checking: bool  # under `if TYPE_CHECKING:`: never runs
    is_from: bool
    star: bool = False

    @property
    def module_scope(self) -> bool:
        """True for imports executed when the module itself is imported."""
        return not self.deferred and not self.type_checking


@dataclass
class ModuleInfo:
    """One analyzed module: its identity, imports, and top-level symbols."""

    name: str
    relpath: str
    is_package: bool
    tree: ast.Module
    imports: tuple[ImportRecord, ...] = ()
    bindings: frozenset[str] = frozenset()  # runtime top-level names
    has_star_import: bool = False
    #: ``__all__`` literal entries as (name, line, col); () when absent.
    all_names: tuple[tuple[str, int, int], ...] = ()

    @property
    def package(self) -> str:
        """The module's top-level package ("repro.cdn" for "repro.cdn.fastly")."""
        parts = self.name.split(".")
        if parts[0] == ROOT_COMPONENT and len(parts) > 1:
            return ".".join(parts[:2])
        return parts[0]


def module_name_for(relpath: str) -> tuple[str, bool]:
    """``(dotted module name, is_package)`` for a posix relpath.

    Anchored at the *last* ``repro`` path component so fixture trees that
    embed a ``repro/`` prefix get real module identities; a leading
    ``src/`` is stripped for non-``repro`` layouts; anything else keeps
    its full dotted path (self-consistent within one lint run).
    """
    parts = [part for part in relpath.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if ROOT_COMPONENT in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index(ROOT_COMPONENT) :]
    elif parts and parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts) or relpath, is_package


def _resolve_relative(name: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute dotted target of a relative ``from``-import, "" if it
    escapes the analyzed tree's root."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    ascend = node.level - 1
    if ascend > len(package):
        return ""
    base = package[: len(package) - ascend] if ascend else package
    if node.module:
        return ".".join(base + node.module.split("."))
    return ".".join(base)


def _collect_imports(
    tree: ast.Module, name: str, is_package: bool
) -> tuple[ImportRecord, ...]:
    records: list[ImportRecord] = []

    def is_type_checking_test(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    def visit(node: ast.AST, deferred: bool, type_checking: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    records.append(
                        ImportRecord(
                            target=alias.name,
                            names=(),
                            line=child.lineno,
                            col=child.col_offset + 1,
                            deferred=deferred,
                            type_checking=type_checking,
                            is_from=False,
                        )
                    )
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    target = _resolve_relative(name, is_package, child)
                else:
                    target = child.module or ""
                star = any(alias.name == "*" for alias in child.names)
                records.append(
                    ImportRecord(
                        target=target,
                        names=tuple(
                            (alias.name, alias.asname or alias.name)
                            for alias in child.names
                            if alias.name != "*"
                        ),
                        line=child.lineno,
                        col=child.col_offset + 1,
                        deferred=deferred,
                        type_checking=type_checking,
                        is_from=True,
                        star=star,
                    )
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, True, type_checking)
            elif isinstance(child, ast.If) and is_type_checking_test(child.test):
                for stmt in child.body:
                    visit_wrapper(stmt, deferred, True)
                for stmt in child.orelse:
                    visit_wrapper(stmt, deferred, type_checking)
            else:
                visit(child, deferred, type_checking)

    def visit_wrapper(stmt: ast.stmt, deferred: bool, type_checking: bool) -> None:
        # Re-dispatch a single statement through the same classification.
        holder = ast.Module(body=[stmt], type_ignores=[])
        visit(holder, deferred, type_checking)

    visit(tree, False, False)
    return tuple(records)


def _runtime_bindings(tree: ast.Module) -> tuple[frozenset[str], bool]:
    """Names bound at module scope when the module executes.

    Walks into top-level ``if``/``try``/``with``/loop bodies (conditional
    bindings count) but not into functions, classes, or ``TYPE_CHECKING``
    blocks (those never bind at runtime).  Annotation-only statements
    (``x: int`` with no value) do not bind either.
    """
    bound: set[str] = set()
    has_star = False

    def visit(stmts: Iterable[ast.stmt]) -> None:
        nonlocal has_star
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bound.add(leaf.id)
            elif isinstance(node, ast.AnnAssign):
                if node.value is not None and isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, ast.If):
                if not (
                    (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING")
                    or (
                        isinstance(node.test, ast.Attribute)
                        and node.test.attr == "TYPE_CHECKING"
                    )
                ):
                    visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.Try):
                visit(node.body)
                for handler in node.handlers:
                    if handler.name:
                        bound.add(handler.name)
                    visit(handler.body)
                visit(node.orelse)
                visit(node.finalbody)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(node.target):
                    if isinstance(leaf, ast.Name):
                        bound.add(leaf.id)
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, ast.While):
                visit(node.body)
                visit(node.orelse)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        for leaf in ast.walk(item.optional_vars):
                            if isinstance(leaf, ast.Name):
                                bound.add(leaf.id)
                visit(node.body)

    visit(tree.body)
    return frozenset(bound), has_star


def _all_literal(tree: ast.Module) -> tuple[tuple[str, int, int], ...]:
    """``__all__`` entries with their own source locations, () if absent
    or not a plain list/tuple of string literals."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in targets
        ):
            continue
        value = node.value
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in value.elts
        ):
            return tuple(
                (element.value, element.lineno, element.col_offset + 1)
                for element in value.elts
            )
    return ()


@dataclass
class ProjectGraph:
    """Every analyzed module, keyed by dotted name, plus derived views."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    def resolve_target(self, record: ImportRecord) -> Optional[ModuleInfo]:
        """The analyzed module an import record names, if any."""
        return self.modules.get(record.target) if record.target else None

    def module_scope_edges(self) -> dict[str, set[str]]:
        """``{module: imported modules}`` over module-scope imports only,
        restricted to analyzed modules (submodule from-imports included)."""
        edges: dict[str, set[str]] = {name: set() for name in self.modules}
        for name, info in self.modules.items():
            for record in info.imports:
                if not record.module_scope or not record.target:
                    continue
                if record.target in self.modules and record.target != name:
                    edges[name].add(record.target)
                if record.is_from:
                    for original, _local in record.names:
                        candidate = f"{record.target}.{original}"
                        if candidate in self.modules and candidate != name:
                            edges[name].add(candidate)
        return edges

    def edge_count(self) -> int:
        return sum(len(targets) for targets in self.module_scope_edges().values())

    def cycles(self) -> list[tuple[str, ...]]:
        """Module-scope import cycles as sorted SCC member tuples."""
        edges = self.module_scope_edges()
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        sccs: list[tuple[str, ...]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion would overflow on deep chains.
            work = [(node, iter(sorted(edges[node])))]
            index[node] = lowlink[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index:
                        index[successor] = lowlink[successor] = counter[0]
                        counter[0] += 1
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append((successor, iter(sorted(edges[successor]))))
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[current] = min(lowlink[current], index[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(tuple(sorted(component)))

        for name in sorted(self.modules):
            if name not in index:
                strongconnect(name)
        return sorted(sccs)

    def summary(self) -> dict:
        """The JSON report's ``project`` section."""
        return {
            "modules": len(self.modules),
            "import_edges": self.edge_count(),
            "cycles": len(self.cycles()),
        }


def build_project_graph(contexts: Iterable) -> ProjectGraph:
    """Build the graph from parsed file contexts (anything with
    ``relpath`` and ``tree`` attributes)."""
    graph = ProjectGraph()
    for ctx in contexts:
        name, is_package = module_name_for(ctx.relpath)
        bindings, has_star = _runtime_bindings(ctx.tree)
        graph.modules[name] = ModuleInfo(
            name=name,
            relpath=ctx.relpath,
            is_package=is_package,
            tree=ctx.tree,
            imports=_collect_imports(ctx.tree, name, is_package),
            bindings=bindings,
            has_star_import=has_star,
            all_names=_all_literal(ctx.tree),
        )
    return graph


def render_dot(
    graph: ProjectGraph, tier_of: Optional[Callable[[str], Optional[int]]] = None
) -> str:
    """Package-level condensation of the import graph in DOT format.

    Modules collapse into their top-level package; module-scope edges are
    solid (labelled with their count), edges that exist *only* deferred
    are dashed.  With ``tier_of`` (see :mod:`repro.lint.architecture`),
    packages cluster by layer so the rendered diagram reads bottom-up.
    """
    packages: dict[str, set[str]] = {}
    for info in graph.modules.values():
        packages.setdefault(info.package, set()).add(info.name)

    scope_edges: dict[tuple[str, str], int] = {}
    deferred_edges: dict[tuple[str, str], int] = {}
    for info in graph.modules.values():
        for record in info.imports:
            resolved = graph.resolve_target(record)
            if resolved is None or resolved.package == info.package:
                continue
            if record.type_checking:
                continue
            key = (info.package, resolved.package)
            bucket = deferred_edges if record.deferred else scope_edges
            bucket[key] = bucket.get(key, 0) + 1

    lines = [
        "digraph repro_imports {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    if tier_of is not None:
        by_tier: dict[int, list[str]] = {}
        for package in sorted(packages):
            sample = sorted(packages[package])[0]
            tier = tier_of(sample)
            if tier is not None:
                by_tier.setdefault(tier, []).append(package)
        for tier in sorted(by_tier):
            lines.append(f"  subgraph cluster_tier_{tier} {{")
            lines.append(f'    label="tier {tier}";')
            for package in by_tier[tier]:
                lines.append(f'    "{package}";')
            lines.append("  }")
    for (source, target), count in sorted(scope_edges.items()):
        label = f' [label="{count}"]' if count > 1 else ""
        lines.append(f'  "{source}" -> "{target}"{label};')
    for (source, target), _count in sorted(deferred_edges.items()):
        if (source, target) in scope_edges:
            continue
        lines.append(f'  "{source}" -> "{target}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
