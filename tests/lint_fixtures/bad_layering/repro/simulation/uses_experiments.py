"""Fixture: the simulation kernel (tier 1) importing the experiments tier
(tier 6) at module scope — an upward dependency the layering contract
forbids."""

from repro.experiments.registry import run_experiment


def rerun(experiment_id: str):
    return run_experiment(experiment_id)
