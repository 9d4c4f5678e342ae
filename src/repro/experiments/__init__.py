"""Experiment runners: one per table/figure of the paper.

Each runner regenerates the rows/series its table or figure reports, on
synthetic traces at a configurable scale, and returns the raw data and a
rendered text report; the registry wraps them in an
:class:`~repro.experiments.registry.ExperimentResult` with the id and
title the runner was registered under.  The registry maps experiment IDs
("table1", "fig12", ...) to runners::

    from repro import run_experiment
    result = run_experiment("fig11")
    print(result.text)
"""

from repro.experiments.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
