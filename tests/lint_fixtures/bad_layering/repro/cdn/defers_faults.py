"""Fixture: the delivery tier (tier 2) importing the orchestration tier
(tier 5) inside a function.  Deferring an upward import does not make it
legal; only the ``TYPE_CHECKING`` import below, which never runs, is
exempt."""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan


def arm(plan: "FaultPlan"):
    from repro.faults.injector import FaultInjector

    return FaultInjector, plan
