"""The determinism rules — one class per hazard the repo has been bitten by.

Every rule is a pure AST pass (stdlib-only, no type inference), tuned to
this codebase's conventions: named substreams from
:class:`repro.simulation.randomness.RandomStreams` are the only sanctioned
randomness, the :class:`~repro.simulation.engine.Simulator` clock is the
only clock, and anything order-dependent must spell its ordering out.
False positives are expected to be rare and are handled with
``# repro: allow[rule-id] reason`` suppressions, which the runner audits.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, register

#: numpy.random attributes that are *not* the legacy process-global RNG.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_WALL_CLOCK_TIME = frozenset({"time", "time_ns", "monotonic", "monotonic_ns"})
_PERF_COUNTER = frozenset({"perf_counter", "perf_counter_ns"})
_DATETIME_CLASSES = frozenset({"datetime", "date"})
_DATETIME_METHODS = frozenset({"now", "utcnow", "today"})
#: Host resource-state reads, gated like perf_counter: fine in the
#: observability allowlist, a determinism hazard anywhere else.
_RUSAGE = frozenset({"getrusage"})


def _module_aliases(tree: ast.AST, module: str) -> set[str]:
    """Local names bound to ``module`` by ``import module [as alias]``."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.name == module:
                    aliases.add(name.asname or module)
    return aliases


def _imported_from(tree: ast.AST, module: str) -> dict[str, str]:
    """``{local_name: original_name}`` for ``from module import a [as b]``."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for name in node.names:
                names[name.asname or name.name] = name.name
    return names


@register
class UnseededRandomRule(Rule):
    """Stdlib ``random`` and numpy's legacy global RNG are process-global
    mutable state: any import reorder or extra draw silently perturbs every
    downstream sequence.  Builtin ``hash()`` is salted per process for
    ``str`` and ``bytes`` (``PYTHONHASHSEED``), so a seed derived from it
    changes from run to run.  All randomness must come from named
    substreams (:class:`repro.simulation.randomness.RandomStreams`, or
    :func:`~repro.simulation.randomness.substream_seed` for a seed) or an
    explicitly seeded ``numpy.random.default_rng``."""

    rule_id = "unseeded-random"
    description = (
        "stdlib random / numpy legacy global RNG / builtin hash() forbidden; "
        "use RandomStreams named substreams or substream_seed"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        np_aliases = _module_aliases(ctx.tree, "numpy")
        np_random_names = {
            local
            for local, original in _imported_from(ctx.tree, "numpy").items()
            if original == "random"
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name == "random" or name.name.startswith("random."):
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            "import of the process-global stdlib 'random' module; "
                            "draw from a RandomStreams named substream instead",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "import from the process-global stdlib 'random' module; "
                    "draw from a RandomStreams named substream instead",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "builtin hash() is salted per process (PYTHONHASHSEED); "
                    "derive seeds with repro.simulation.substream_seed",
                )
            elif isinstance(node, ast.Attribute):
                # numpy.random.<legacy fn>: np.random.X or npr.X
                value = node.value
                is_np_random = (
                    isinstance(value, ast.Attribute)
                    and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in np_aliases
                ) or (isinstance(value, ast.Name) and value.id in np_random_names)
                if is_np_random and node.attr not in _NP_RANDOM_ALLOWED:
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"numpy.random.{node.attr} uses the legacy process-global "
                        "RNG; use numpy.random.default_rng via RandomStreams",
                    )


@register
class WallClockRule(Rule):
    """Simulation and analysis code must read time only from the simulator
    clock — wall-clock reads make runs depend on the host instead of on
    (config, seed).  ``time.perf_counter`` and ``resource.getrusage`` (host
    memory state, same hazard) are tolerated in the timing-only sites
    (``cli.py``, ``parallel/generate.py``, ``obs/process.py``,
    ``benchmarks/``) that report wall runtime and peak RSS to humans and
    never feed either back into the simulation."""

    rule_id = "wall-clock"
    description = (
        "wall-clock reads (time.time/monotonic, datetime.now/utcnow) forbidden; "
        "perf_counter/getrusage only in timing-only allowlisted files"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_aliases = _module_aliases(ctx.tree, "time")
        resource_aliases = _module_aliases(ctx.tree, "resource")
        datetime_aliases = _module_aliases(ctx.tree, "datetime")
        datetime_classes = {
            local
            for local, original in _imported_from(ctx.tree, "datetime").items()
            if original in _DATETIME_CLASSES
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for name in node.names:
                    if name.name in _WALL_CLOCK_TIME:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"wall-clock import 'from time import {name.name}'; "
                            "use the simulator clock",
                        )
                    elif name.name in _PERF_COUNTER and not ctx.timing_allowed:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"time.{name.name} outside the timing-only allowlist; "
                            "keep host timing out of simulation/analysis code",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "resource":
                for name in node.names:
                    if name.name in _RUSAGE and not ctx.timing_allowed:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"resource.{name.name} outside the timing-only allowlist; "
                            "host resource state belongs in repro.obs.process",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                value = func.value
                if isinstance(value, ast.Name) and value.id in time_aliases:
                    if func.attr in _WALL_CLOCK_TIME:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"wall-clock read time.{func.attr}(); "
                            "use the simulator clock (Simulator.now)",
                        )
                    elif func.attr in _PERF_COUNTER and not ctx.timing_allowed:
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"time.{func.attr}() outside the timing-only allowlist; "
                            "keep host timing out of simulation/analysis code",
                        )
                elif (
                    isinstance(value, ast.Name)
                    and value.id in resource_aliases
                    and func.attr in _RUSAGE
                    and not ctx.timing_allowed
                ):
                    yield ctx.finding(
                        node,
                        self.rule_id,
                        f"resource.{func.attr}() outside the timing-only allowlist; "
                        "host resource state belongs in repro.obs.process",
                    )
                elif func.attr in _DATETIME_METHODS:
                    # datetime.datetime.now() / dt.date.today() / datetime.now()
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr in _DATETIME_CLASSES
                        and isinstance(value.value, ast.Name)
                        and value.value.id in datetime_aliases
                    ) or (isinstance(value, ast.Name) and value.id in datetime_classes):
                        yield ctx.finding(
                            node,
                            self.rule_id,
                            f"wall-clock read {ast.unparse(func)}(); "
                            "use the simulator clock",
                        )


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions whose value is an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "intersection",
            "union",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


#: Builtins whose output order mirrors iteration order of their argument.
_ORDER_SENSITIVE_BUILTINS = frozenset({"list", "tuple", "enumerate", "sum", "iter"})
#: Method names that materialize their argument in iteration order.
_ORDER_SENSITIVE_METHODS = frozenset({"array", "join", "extend", "fromiter"})


@register
class UnorderedSetIterationRule(Rule):
    """Set iteration order depends on hash seeding and insertion history;
    feeding it into loops, sorts-by-position, arrays or string output makes
    run output depend on ``PYTHONHASHSEED`` instead of (config, seed).
    Wrapping the set in ``sorted(...)`` is the sanctioned fix (dict views
    are exempt: dicts iterate in insertion order, which is deterministic)."""

    rule_id = "unordered-set-iteration"
    description = (
        "iterating/materializing a bare set without sorted() makes "
        "output depend on hash order"
    )

    def _flag(self, ctx: FileContext, node: ast.AST, context: str) -> Finding:
        return ctx.finding(
            node,
            self.rule_id,
            f"unordered set iterated by {context}; wrap the set in sorted(...) "
            "to pin the order",
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self._flag(ctx, node.iter, "a for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        yield self._flag(ctx, generator.iter, "a comprehension")
            elif isinstance(node, ast.Starred) and _is_set_expr(node.value):
                yield self._flag(ctx, node.value, "star-unpacking")
            elif isinstance(node, ast.Call) and node.args and _is_set_expr(node.args[0]):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_BUILTINS
                ):
                    yield self._flag(ctx, node.args[0], f"{node.func.id}()")
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                ):
                    yield self._flag(ctx, node.args[0], f".{node.func.attr}()")


@register
class SwallowedExceptionRule(Rule):
    """A bare ``except:`` or a non-re-raising ``except Exception`` swallows
    :class:`~repro.simulation.engine.SimulationError` — engine misuse then
    degrades into silently wrong results instead of a failed run.  Catch the
    specific exceptions a call site can actually produce, or re-raise."""

    rule_id = "swallowed-exception"
    description = (
        "bare except / except Exception without re-raise can swallow "
        "SimulationError"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "bare 'except:' swallows SimulationError (and KeyboardInterrupt); "
                    "catch the specific exceptions instead",
                )
                continue
            broad = [
                name
                for name in (
                    node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                )
                if isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
            ]
            if broad and not any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    f"'except {broad[0].id}' without re-raise swallows "
                    "SimulationError; narrow the exception types or re-raise",
                )


def _top_level_bindings(tree: ast.Module) -> tuple[set[str], bool]:
    """Names bound at module top level, plus whether a star import occurs."""
    bound: set[str] = set()
    has_star = False
    for node in tree.body:
        if isinstance(node, ast.Import):
            for name in node.names:
                bound.add(name.asname or name.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for name in node.names:
                if name.name == "*":
                    has_star = True
                else:
                    bound.add(name.asname or name.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    bound.update(
                        element.id
                        for element in target.elts
                        if isinstance(element, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound, has_star


@register
class MissingAllRule(Rule):
    """Every package ``__init__.py`` must pin its public surface with a
    literal ``__all__`` of unique strings that all resolve — the static half
    of ``tests/test_public_api.py``, enforced before the import even runs."""

    rule_id = "missing-all"
    description = (
        "package __init__.py must define a literal __all__ of unique, "
        "resolvable string names"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_package_init or not isinstance(ctx.tree, ast.Module):
            return
        assignment = None
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                assignment = node
        if assignment is None:
            yield Finding(
                path=ctx.relpath,
                line=1,
                col=1,
                rule_id=self.rule_id,
                message="package __init__.py defines no __all__; "
                "pin the public API surface",
            )
            return
        value = assignment.value
        if not isinstance(value, (ast.List, ast.Tuple)) or not all(
            isinstance(element, ast.Constant) and isinstance(element.value, str)
            for element in value.elts
        ):
            yield ctx.finding(
                assignment,
                self.rule_id,
                "__all__ must be a literal list/tuple of strings",
            )
            return
        names = [element.value for element in value.elts]
        if not names:
            yield ctx.finding(assignment, self.rule_id, "__all__ is empty")
            return
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            yield ctx.finding(
                assignment,
                self.rule_id,
                f"__all__ has duplicate entries: {', '.join(duplicates)}",
            )
        bound, has_star = _top_level_bindings(ctx.tree)
        if not has_star:
            unresolved = sorted(set(names) - bound - {"__version__", "__doc__"})
            if unresolved:
                yield ctx.finding(
                    assignment,
                    self.rule_id,
                    f"__all__ names not bound in the module: {', '.join(unresolved)}",
                )


@register
class FsumRequiredRule(Rule):
    """``sum()`` over mapping values accumulates float rounding error in
    whatever order the dict was built — histogram buckets and delay
    components must use ``math.fsum`` (exact) instead.  Integer-valued
    mappings may suppress with a reason stating the values are ints."""

    rule_id = "fsum-required"
    description = (
        "sum() over .values() accumulates float error; use math.fsum "
        "(suppress with a reason when values are integers)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Attribute)
                and node.args[0].func.attr == "values"
                and not node.args[0].args
            ):
                yield ctx.finding(
                    node,
                    self.rule_id,
                    "sum() over mapping .values() is order-dependent for floats; "
                    "use math.fsum, or suppress with a reason if the values are "
                    "integers",
                )
