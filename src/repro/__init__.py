"""repro — a reproduction of "Anatomy of a Personalized Livestreaming
System" (Wang et al., IMC 2016).

Periscope and Meerkat are long defunct, so this library rebuilds the
measured system as a deterministic simulation — the livestreaming platform,
its two-CDN video pipeline (RTMP push via Wowza, chunked HLS via Fastly),
the social graph, the measurement crawlers, client playback, and the §7
stream-tampering attack/defense — and then reruns the paper's entire
analysis on top: every table and figure has a runner in
:mod:`repro.experiments`.

Quick start::

    from repro.parallel import generate_trace
    from repro.workload import TraceConfig

    trace = generate_trace(TraceConfig.periscope(scale=0.0005))
    print(trace.dataset.table1_row())

See README.md for the architecture overview and DESIGN.md for the full
system inventory and experiment index.
"""

from repro.experiments.registry import get_experiment, list_experiments, run_experiment

__version__ = "1.0.0"

__all__ = ["__version__", "list_experiments", "get_experiment", "run_experiment"]
