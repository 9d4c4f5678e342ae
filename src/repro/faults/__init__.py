"""Deterministic fault injection and resilience (see ``FAULTS.md``).

The subsystem has two halves that meet only through component state:

* **Injection** — :class:`FaultPlan` (what/where/when, hand-written or
  Poisson-sampled from a seeded generator) executed by a
  :class:`FaultInjector` purely through simulator events: POPs go down or
  degrade, origins stop serving pulls, front-end queues slow down, the
  platform API browns out, crawler token buckets starve.
* **Resilience** — :class:`~repro.simulation.RetryPolicy` (exponential
  backoff, deterministic jitter, attempt timeouts, deadlines) adopted by
  the crawler and the HLS viewer, edge failover in the viewer, a
  :class:`~repro.simulation.CircuitBreaker` on the Fastly origin-pull
  path, and platform load shedding (stale global-list snapshots instead
  of errors).  The primitives live in :mod:`repro.simulation` because the
  delivery and crawler tiers below this package use them.

Identical seeds and plans yield byte-identical runs, and an armed injector
with an empty plan leaves the simulation bit-for-bit on the faultless seed
path — the properties ``tests/test_faults_determinism.py`` pins down.

The ``repro chaos`` CLI target (:mod:`repro.faults.scenario`) runs a naive
and a resilient system through the same fault schedule and reports the
degradation side by side.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultWindow

__all__ = [
    "FaultKind",
    "FaultWindow",
    "FaultPlan",
    "FaultInjector",
]
