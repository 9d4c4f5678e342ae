"""Discrete-event simulation core.

Everything in :mod:`repro` that models time — the CDN, the clients, the
crawler, the security experiments — runs on top of this small engine.  The
engine provides a deterministic event queue with a simulated clock, plus
seeded random-number streams so that every experiment in the repository is
reproducible bit-for-bit from its seed.

The simulated-time control primitives every tier above shares live here
too: :class:`RetryPolicy` and :class:`CircuitBreaker`
(:mod:`repro.simulation.resilience`) and the :class:`TokenBucket` rate
limiter (:mod:`repro.simulation.rate_limit`).
"""

from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams, substream_seed
from repro.simulation.rate_limit import TokenBucket
from repro.simulation.resilience import CircuitBreaker, RetryPolicy
from repro.simulation.distributions import (
    bounded_pareto,
    lognormal_from_median,
    zipf_weights,
)

__all__ = [
    "Simulator",
    "RandomStreams",
    "substream_seed",
    "TokenBucket",
    "CircuitBreaker",
    "RetryPolicy",
    "bounded_pareto",
    "lognormal_from_median",
    "zipf_weights",
]
