"""The benchmark's four workloads and the metrics each one reports.

A workload has three parts:

* ``prepare`` builds its inputs from the seed; the benchmark times it as
  set-up, alongside the imports;
* ``run`` is the timed section, one repetition;
* ``finish`` checks that repetition's outputs, outside the timed section,
  and returns one boolean per check.

Every workload drives ``repro`` only through its public functions, with at
most two worker processes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ContextManager, Optional

import numpy as np

from meter import Meter
from spans import Tracer

#: Registered experiments, in paper order; one ``experiments.<id>_s`` metric each.
EXPERIMENT_IDS = (
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "faultsweep", "serving",
)
#: The experiments that read the Periscope and Meerkat traces.
TRACE_EXPERIMENT_IDS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

#: Span-name prefixes, one per layer, whose self time the traced run reports.
LAYERS = (
    "bench", "experiments", "social", "workload", "parallel",
    "crawler", "core", "simulation", "service",
)

#: Worker processes for trace generation (the benchmark host has two cores).
TRACE_WORKERS = 2
#: Trace scales at size 1.
TRACE_BUILD_SCALE = 0.01
TRACE_ANALYSIS_SCALE = 0.002
#: Simulated seconds of the serving run at size 1.
SERVE_DURATION_S = 200.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"experiments.{exp_id}_s": "s" for exp_id in EXPERIMENT_IDS}
    units.update({
        "social.clustering_s": "s",
        "social.path_length_s": "s",
        "social.assortativity_s": "s",
        "social.graph_build_s": "s",
        "workload.context_s": "s",
        "parallel.generate_s": "s",
        "parallel.shards": "count",
        "parallel.shard_s_max": "s",
        "parallel.shard_s_mean": "s",
        "parallel.shard_retries": "count",
        "parallel.merge_s": "s",
        "parallel.merge_mb_per_s": "MB/s",
        "crawler.entry_mb": "MB",
        "crawler.cache_get_s": "s",
        "crawler.cache_hit_ratio": "ratio",
        "core.campaign_s": "s",
        "core.campaign_frames": "count",
        "core.frames_per_s": "1/s",
        "simulation.run_s": "s",
        "simulation.events": "count",
        "simulation.events_per_s": "1/s",
        "service.submit_s": "s",
        "service.admit_s": "s",
        "service.query_s": "s",
        "service.join_s": "s",
        "service.requests": "count",
        "service.admitted": "count",
        "service.shed": "count",
        "service.cache_hit_ratio": "ratio",
        "service.retries": "count",
        "service.p99_ms": "ms",
        "service.mean_ms": "ms",
        "service.shed_frac": "ratio",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "bench.untraced_wall_s": "s",
        "bench.traced_wall_s": "s",
        "bench.trace_overhead_s": "s",
    })
    return units


def span(tracer: Optional[Tracer], name: str) -> ContextManager[None]:
    return tracer.span(name) if tracer is not None else nullcontext()


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.core.pipeline import DelayMeasurementCampaign
    from repro.crawler.storage import DatasetCache
    from repro.experiments import context
    from repro.parallel import generate
    from repro.service.admission import AdmissionController
    from repro.service.frontend import ServiceFrontend
    from repro.service.services import BroadcastService, ListService
    from repro.simulation.engine import Simulator
    from repro.social import metrics

    tracer.wrap(metrics, "average_clustering", "social.clustering")
    tracer.wrap(metrics, "average_path_length", "social.path_length")
    tracer.wrap(metrics, "degree_assortativity", "social.assortativity")
    tracer.wrap(generate, "build_follow_graph", "social.graph_build")
    tracer.wrap(generate, "build_trace_context", "workload.context")
    tracer.wrap(context, "generate_trace", "parallel.generate_trace")
    tracer.wrap(generate, "generate_dataset", "parallel.generate")
    tracer.wrap(generate, "stream_merge_shards", "parallel.merge")
    tracer.wrap(DatasetCache, "get", "crawler.cache_get", count=lambda found: found is not None)
    tracer.wrap(
        DelayMeasurementCampaign, "run", "core.campaign",
        count=lambda traces: sum(len(trace.frame_arrivals) for trace in traces),
    )
    tracer.wrap(Simulator, "run", "simulation.run", probe=lambda args: args[0].events_processed)
    # One call per served request: aggregated into the parent span.
    tracer.wrap(ServiceFrontend, "submit", "service.submit", aggregate=True)
    tracer.wrap(AdmissionController, "admit", "service.admit", aggregate=True)
    tracer.wrap(ListService, "query", "service.query", aggregate=True)
    tracer.wrap(BroadcastService, "join", "service.join", aggregate=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced repetition (0 where a layer is idle)."""
    values = {name: 0.0 for name in per_layer_units()}
    for exp_id in EXPERIMENT_IDS:
        values[f"experiments.{exp_id}_s"] = tracer.seconds(f"experiments.{exp_id}")
    for metric, span_name in (
        ("social.clustering_s", "social.clustering"),
        ("social.path_length_s", "social.path_length"),
        ("social.assortativity_s", "social.assortativity"),
        ("social.graph_build_s", "social.graph_build"),
        ("workload.context_s", "workload.context"),
        ("parallel.merge_s", "parallel.merge"),
        ("crawler.cache_get_s", "crawler.cache_get"),
        ("core.campaign_s", "core.campaign"),
        ("simulation.run_s", "simulation.run"),
        ("service.submit_s", "service.submit"),
        ("service.admit_s", "service.admit"),
        ("service.query_s", "service.query"),
        ("service.join_s", "service.join"),
    ):
        values[metric] = tracer.seconds(span_name)
    # Shard generation is generate_dataset minus the merge it ends with.
    values["parallel.generate_s"] = tracer.self_seconds("parallel.generate")
    gets = tracer.totals.get("crawler.cache_get", [0])[0]
    values["crawler.cache_hit_ratio"] = _ratio(tracer.counts.get("crawler.cache_get", 0.0), gets)
    values["core.campaign_frames"] = tracer.counts.get("core.campaign", 0.0)
    values["core.frames_per_s"] = _ratio(values["core.campaign_frames"], values["core.campaign_s"])
    values["simulation.events"] = tracer.counts.get("simulation.run", 0.0)
    values["simulation.events_per_s"] = _ratio(values["simulation.events"], values["simulation.run_s"])
    for layer, seconds in tracer.layer_self_seconds().items():
        values[f"{layer}.self_s"] = seconds
    values.update(extra)
    values["parallel.merge_mb_per_s"] = _ratio(values["crawler.entry_mb"], values["parallel.merge_s"])
    return values


def digest(value: Any) -> str:
    """SHA-256 of a canonical encoding of nested experiment data."""
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
        raise TypeError(f"cannot digest {type(value).__name__}")


def _file_sha256(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


@dataclass
class RepOutput:
    """What one repetition produced, as far as the benchmark needs it."""

    work: float
    fingerprint: Any
    checks: list[bool]
    layers: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, scratch: Path, size: float = 1.0) -> None:
        self.seed = seed
        self.scratch = scratch
        self.size = size

    def prepare(self, index: int) -> Any:
        """Build the inputs; the benchmark keeps the last of several."""
        return None

    def discard(self, inputs: Any) -> None:
        """Drop inputs replaced by a later ``prepare``."""

    def run(self, inputs: Any, tracer: Optional[Tracer], meter: Meter) -> Any:
        """One repetition; only what runs inside ``meter.part`` is timed."""
        raise NotImplementedError

    def finish(self, inputs: Any, result: Any) -> RepOutput:
        """Check one repetition's result (outside the timed section)."""
        raise NotImplementedError

    def close(self) -> None:
        """Undo whatever the workload changed in this process."""


class PaperAll(Workload):
    name = "paper_all"
    why = "every experiment in paper order then the 20 claims, as python -m repro --all; Table 2 graph metrics and the DES dominate"

    def prepare(self, index: int) -> Any:
        from repro.experiments.registry import get_experiment, list_experiments

        # Every runner that takes a seed gets the benchmark's seed.
        return {
            exp_id: (
                {"seed": self.seed}
                if "seed" in inspect.signature(get_experiment(exp_id).runner).parameters
                else {}
            )
            for exp_id in list_experiments()
        }

    def run(self, inputs: Any, tracer: Optional[Tracer], meter: Meter) -> Any:
        from repro.experiments.registry import run_experiment

        results = {}
        for exp_id, kwargs in inputs.items():
            with meter.part(exp_id), span(tracer, f"experiments.{exp_id}"):
                results[exp_id] = run_experiment(exp_id, **kwargs)
        return results

    def finish(self, inputs: Any, result: Any) -> RepOutput:
        from repro.experiments import context
        from repro.validation import CLAIMS

        checks = [claim.evaluate(result[claim.experiment_id]).passed for claim in CLAIMS]
        # The next repetition regenerates the traces the experiments share.
        context.clear_caches()
        return RepOutput(work=len(result), fingerprint=None, checks=checks)


class TraceBuild(Workload):
    name = "trace_build"
    why = "cold sharded generation of a Periscope trace streamed into an empty mmap cache: graph, context, shards, merge"

    def prepare(self, index: int) -> Any:
        from repro.workload.trace import TraceConfig

        return TraceConfig.periscope(
            scale=TRACE_BUILD_SCALE * self.size, seed=self.seed, workers=TRACE_WORKERS
        )

    def run(self, inputs: Any, tracer: Optional[Tracer], meter: Meter) -> Any:
        from repro.obs import MetricsRegistry
        from repro.parallel import generate_trace

        cache_dir = self.scratch / "trace_build-cache"
        registry = MetricsRegistry()
        with meter.part("generate_trace"), span(tracer, "parallel.generate_trace"):
            trace = generate_trace(
                inputs, cache_dir=cache_dir, registry=registry, cache_format="mmap"
            )
        return cache_dir, registry, trace.dataset.broadcast_count

    def finish(self, inputs: Any, result: Any) -> RepOutput:
        from repro.crawler.arrayfile import read_arrays
        from repro.crawler.storage import DatasetCache

        cache_dir, registry, broadcasts = result
        entry = DatasetCache(cache_dir, fmt="mmap").path_for(inputs.cache_key())
        try:
            _, meta = read_arrays(entry, verify=True)
            verified, recorded = True, int(meta["record_count"])
        except (OSError, ValueError, KeyError):
            verified, recorded = False, -1
        snapshot = registry.snapshot()
        counters, gauges = snapshot["counters"], snapshot["gauges"]
        shard_seconds = snapshot["histograms"]["trace.shard_seconds"]
        checks = [
            verified,
            recorded == broadcasts,
            counters.get("trace.cache_misses", {}).get("value") == 1,
            gauges["trace.merge_streamed"]["value"] == 1.0,
        ]
        layers = {
            "parallel.shards": gauges["trace.shards"]["value"],
            "parallel.shard_s_max": shard_seconds["max"],
            "parallel.shard_s_mean": shard_seconds["mean"],
            "parallel.shard_retries": counters.get("trace.shard_retries", {}).get("value", 0),
            "crawler.entry_mb": entry.stat().st_size / 2**20 if verified else 0.0,
        }
        fingerprint = (broadcasts, _file_sha256(entry) if verified else None)
        # The next repetition starts from an empty cache again.
        shutil.rmtree(cache_dir)
        return RepOutput(work=broadcasts, fingerprint=fingerprint, checks=checks, layers=layers)


class TraceAnalysis(Workload):
    name = "trace_analysis"
    why = "Table 1 and Figs 1-7 read Periscope and Meerkat traces back from a warm mmap cache: cache reads, columns, analysis"

    def __init__(self, seed: int, scratch: Path, size: float = 1.0) -> None:
        super().__init__(seed, scratch, size)
        self.scale = TRACE_ANALYSIS_SCALE * size
        self.lookups = [0, 0]  # DatasetCache.get calls, hits
        self.restore: Optional[Any] = None

    def prepare(self, index: int) -> Any:
        from repro.experiments.context import MEERKAT_SCALE_BOOST
        from repro.parallel import generate_trace
        from repro.workload.trace import TraceConfig

        if self.restore is None:
            self.count_lookups()
        cache_dir = self.scratch / f"trace_analysis-cache-{index}"
        periscope = generate_trace(
            TraceConfig.periscope(scale=self.scale, seed=self.seed, workers=TRACE_WORKERS),
            cache_dir=cache_dir,
            cache_format="mmap",
        )
        generate_trace(
            TraceConfig.meerkat(
                scale=min(1.0, self.scale * MEERKAT_SCALE_BOOST),
                seed=self.seed,
                workers=TRACE_WORKERS,
            ),
            cache_dir=cache_dir,
            cache_format="mmap",
        )
        return cache_dir, periscope.dataset.broadcast_count

    def discard(self, inputs: Any) -> None:
        shutil.rmtree(inputs[0])

    def count_lookups(self) -> None:
        """Count dataset-cache lookups and hits in every repetition."""
        from repro.crawler.storage import DatasetCache

        original = DatasetCache.get
        lookups = self.lookups

        def counted(cache: Any, key: str) -> Any:
            found = original(cache, key)
            lookups[0] += 1
            lookups[1] += found is not None
            return found

        DatasetCache.get = counted

        def restore() -> None:
            DatasetCache.get = original

        self.restore = restore

    def close(self) -> None:
        if self.restore is not None:
            self.restore()
        os.environ.pop("REPRO_TRACE_CACHE", None)

    def run(self, inputs: Any, tracer: Optional[Tracer], meter: Meter) -> Any:
        from repro.experiments.registry import run_experiment

        os.environ["REPRO_TRACE_CACHE"] = str(inputs[0])
        self.lookups[:] = [0, 0]
        results = {}
        for exp_id in TRACE_EXPERIMENT_IDS:
            with meter.part(exp_id), span(tracer, f"experiments.{exp_id}"):
                results[exp_id] = run_experiment(exp_id, scale=self.scale, seed=self.seed)
        return results

    def finish(self, inputs: Any, result: Any) -> RepOutput:
        from repro.experiments import context

        lookups, hits = self.lookups
        context.clear_caches()
        fingerprint = digest({exp_id: r.data for exp_id, r in result.items()})
        return RepOutput(
            work=inputs[1], fingerprint=fingerprint, checks=[lookups == 2, hits == lookups]
        )


class ServeFlash(Workload):
    name = "serve_flash"
    why = "closed loop of 128 polling clients plus a 256-client flash crowd over the middle third: admission, store, engine"

    def prepare(self, index: int) -> Any:
        from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig

        duration = SERVE_DURATION_S * self.size
        return LoadGenConfig(
            n_clients=128,
            duration_s=duration,
            flash_crowd=FlashCrowdConfig(
                start_s=duration / 3.0,
                duration_s=duration / 3.0,
                extra_clients=256,
                think_time_s=0.5,
            ),
        )

    def run(self, inputs: Any, tracer: Optional[Tracer], meter: Meter) -> Any:
        from repro.obs import MetricsRegistry
        from repro.service.loadgen import run_serve_bench

        registry = MetricsRegistry()
        with meter.part("run_serve_bench"), span(tracer, "service.run_serve_bench"):
            report = run_serve_bench(seed=self.seed, config=inputs, metrics=registry)
        return report, registry

    def finish(self, inputs: Any, result: Any) -> RepOutput:
        report, registry = result
        counters = registry.snapshot()["counters"]
        hits = counters.get("service.cache.hits", {}).get("value", 0)
        misses = counters.get("service.cache.misses", {}).get("value", 0)
        layers = {
            "service.requests": report.requests,
            "service.admitted": report.admitted,
            "service.shed": report.shed,
            "service.cache_hit_ratio": _ratio(hits, hits + misses),
            "service.retries": report.retries,
            "service.p99_ms": report.latency_p99_s * 1e3,
            "service.mean_ms": report.latency_mean_s * 1e3,
            "service.shed_frac": report.shed_rate,
        }
        checks = [
            report.errors + report.unavailable == 0,
            # Both paths ran: admitted requests and requests shed in the flash.
            report.ok > 0 and report.shed > 0,
        ]
        fingerprint = json.dumps(report.to_dict(), sort_keys=True)
        return RepOutput(work=report.requests, fingerprint=fingerprint, checks=checks, layers=layers)


WORKLOADS = {w.name: w for w in (PaperAll, TraceBuild, TraceAnalysis, ServeFlash)}
