"""Experiment registry.

Maps experiment IDs to runner callables.  Runners are registered by the
modules in this package via the :func:`experiment` decorator; importing
:mod:`repro.experiments.registry` pulls them all in.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_RUNNERS: dict[str, "RegisteredExperiment"] = {}

#: Modules that register experiments on import.
_EXPERIMENT_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.experiments.fig01",
    "repro.experiments.fig02",
    "repro.experiments.fig03",
    "repro.experiments.fig04",
    "repro.experiments.fig05",
    "repro.experiments.fig06",
    "repro.experiments.fig07",
    "repro.experiments.fig08",
    "repro.experiments.fig09",
    "repro.experiments.fig10",
    "repro.experiments.fig11",
    "repro.experiments.fig12",
    "repro.experiments.fig13",
    "repro.experiments.fig14",
    "repro.experiments.fig15",
    "repro.experiments.fig16",
    "repro.experiments.fig17",
    "repro.experiments.fig18",
    "repro.experiments.faultsweep",
    "repro.experiments.serving",
)


@dataclass(frozen=True)
class ExperimentResult:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    data: dict[str, Any]
    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class RegisteredExperiment:
    experiment_id: str
    title: str
    runner: Callable[..., ExperimentResult]
    paper_expectation: str = ""


def experiment(
    experiment_id: str, title: str, paper_expectation: str = ""
) -> Callable[[Callable[..., tuple[dict, str]]], Callable[..., ExperimentResult]]:
    """Decorator registering a runner under ``experiment_id``.

    The runner returns ``(data, text)``; the decorated callable wraps them
    in an :class:`ExperimentResult` with this ``experiment_id`` and
    ``title``, so the registration is the one place either is written.
    It keeps the runner's signature (``inspect.signature`` follows
    ``__wrapped__``).
    """

    def decorate(runner: Callable[..., tuple[dict, str]]) -> Callable[..., ExperimentResult]:
        if experiment_id in _RUNNERS:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")

        @functools.wraps(runner)
        def run(*args: Any, **kwargs: Any) -> ExperimentResult:
            data, text = runner(*args, **kwargs)
            return ExperimentResult(experiment_id, title, data, text)

        _RUNNERS[experiment_id] = RegisteredExperiment(
            experiment_id=experiment_id,
            title=title,
            runner=run,
            paper_expectation=paper_expectation,
        )
        return run

    return decorate


def _ensure_loaded() -> None:
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)


def list_experiments() -> list[str]:
    """All registered experiment IDs, in paper order.

    The order is ``_EXPERIMENT_MODULES``'s, not registration order, so a
    process that imports one runner module before the rest still lists
    ``table1`` first.  Each runner keeps its module's name through
    ``functools.wraps``.
    """
    _ensure_loaded()
    rank = {module: index for index, module in enumerate(_EXPERIMENT_MODULES)}
    return sorted(_RUNNERS, key=lambda name: rank[_RUNNERS[name].runner.__module__])


def get_experiment(experiment_id: str) -> RegisteredExperiment:
    """Look up one registered experiment by ID (raises KeyError if unknown)."""
    _ensure_loaded()
    if experiment_id not in _RUNNERS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_RUNNERS)}"
        )
    return _RUNNERS[experiment_id]


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run one experiment by ID."""
    return get_experiment(experiment_id).runner(**kwargs)


def fingerprint(value: Any) -> str:
    """SHA-256 of a canonical encoding of nested experiment data.

    Arrays hash their dtype, shape and bytes; floats their exact bits (via
    ``float.hex``); dicts and sets are ordered by ``repr``; objects hash
    their class name and fields.  Two runs agree on the fingerprint exactly
    when their results are bit-identical, which is what ``GOLDEN.json``
    pins for every registered experiment.
    """
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


def _feed(hasher: Any, value: Any) -> None:
    if isinstance(value, np.ndarray):
        hasher.update(f"nd{value.dtype.str}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        hasher.update(b"{")
        for key in sorted(value, key=repr):
            _feed(hasher, key)
            _feed(hasher, value[key])
        hasher.update(b"}")
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[")
        for item in value:
            _feed(hasher, item)
        hasher.update(b"]")
    elif isinstance(value, (set, frozenset)):
        hasher.update(b"<")
        for item in sorted(value, key=repr):
            _feed(hasher, item)
        hasher.update(b">")
    elif isinstance(value, bytes):
        hasher.update(value)
    elif isinstance(value, (float, np.floating)):
        hasher.update(float(value).hex().encode())
    elif isinstance(value, (bool, int, str, type(None), np.integer, np.bool_)):
        hasher.update(repr(value).encode())
    elif hasattr(value, "__dict__") or hasattr(value, "__slots__"):
        hasher.update(type(value).__name__.encode())
        fields = vars(value) if hasattr(value, "__dict__") else {
            name: getattr(value, name) for name in value.__slots__
        }
        _feed(hasher, fields)
    else:
        raise TypeError(f"cannot fingerprint {type(value).__name__}")
