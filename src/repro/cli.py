"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro --list
    python -m repro fig11
    python -m repro table1 --scale 0.001 --seed 7
    python -m repro --all
    python -m repro lint src benchmarks   # determinism linter (see LINTING.md)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Optional, Sequence

from repro.experiments.registry import get_experiment, list_experiments, run_experiment

#: Experiments whose runners accept (scale, seed).
_TRACE_EXPERIMENTS = {"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
#: Experiments whose runners accept (n_broadcasts, seed).
_CAMPAIGN_EXPERIMENTS = {"fig12", "fig13", "fig16", "fig17"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures from 'Anatomy of a Personalized "
            "Livestreaming System' (IMC 2016) on the simulated system."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=(
            "experiment IDs to run (e.g. table1 fig11); see --list. "
            "The special target 'metrics' runs a small instrumented "
            "scenario and prints the observability registry as JSON; "
            "'chaos' runs the fault-injection scenario in both naive and "
            "resilient postures and prints the comparison; 'trace' "
            "generates a workload trace (optionally sharded across "
            "--workers processes, reusing --cache-dir) and prints a "
            "summary; 'serve-bench' drives the tiered serving layer with "
            "closed-loop polling clients (--clients/--duration/"
            "--flash-crowd/--no-admission) and prints latency and shed "
            "rates; 'lint' runs the determinism linter (its own flags — "
            "see 'repro lint --help')."
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiment IDs and exit")
    parser.add_argument("--all", action="store_true", help="run every experiment in paper order")
    parser.add_argument(
        "--scale", type=float, default=None,
        help="trace scale for table1/table2/fig1-7 (default 0.0005)",
    )
    parser.add_argument("--seed", type=int, default=None, help="root random seed")
    parser.add_argument(
        "--broadcasts", type=int, default=None,
        help="delay-crawl campaign size for fig12/13/16/17 (default 60)",
    )
    parser.add_argument(
        "--intensity", type=float, default=None,
        help="fault intensity for the 'chaos' target (default 1.0)",
    )
    parser.add_argument(
        "--clients", type=int, default=None,
        help="closed-loop clients for the 'serve-bench' target (default 16)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds for the 'serve-bench' target (default 60)",
    )
    parser.add_argument(
        "--flash-crowd", action="store_true",
        help=(
            "hit the 'serve-bench' run with a mid-run flash crowd "
            "(10x extra clients polling at 0.25s think time)"
        ),
    )
    parser.add_argument(
        "--no-admission", action="store_true",
        help="disable admission control for the 'serve-bench' target",
    )
    parser.add_argument(
        "--app", choices=("periscope", "meerkat"), default="periscope",
        help="application profile for the 'trace' target (default periscope)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the 'trace' target (default 1)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="day-range shards for the 'trace' target (default auto)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="on-disk dataset cache for the 'trace' target (keyed by config hash)",
    )
    parser.add_argument(
        "--cache-format", choices=("mmap", "v2"), default="mmap",
        help=(
            "serialization for new 'trace' cache entries: mmap "
            "uncompressed page-aligned columns opened zero-copy (default), "
            "or v2 gzipped columns (smaller on disk, slower to write); "
            "both store identical datasets and each cache reads the "
            "other's files"
        ),
    )
    parser.add_argument(
        "--run-dir", type=str, default=None, metavar="DIR",
        help=(
            "checkpoint directory for the 'trace' target: finished shards "
            "are journaled there atomically, so an interrupted run can be "
            "continued with --resume instead of starting over"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "resume the run checkpointed in --run-dir, skipping shards "
            "already done (requires --run-dir)"
        ),
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help=(
            "arm the runtime determinism sanitizer for the 'chaos' and "
            "'trace' targets: wall-clock/global-RNG reads from simulation "
            "code raise, and multi-process runs require a pinned "
            "PYTHONHASHSEED"
        ),
    )
    parser.add_argument(
        "--expect", action="store_true",
        help="also print each experiment's expected result from the paper",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="run the paper-claim scorecard (honours --seed/--scale/--broadcasts) and exit",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="FILE",
        help="also append all output to FILE",
    )
    return parser


def _kwargs_for(experiment_id: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {}
    if experiment_id in _TRACE_EXPERIMENTS:
        if args.scale is not None:
            kwargs["scale"] = args.scale
        if args.seed is not None:
            kwargs["seed"] = args.seed
    elif experiment_id in _CAMPAIGN_EXPERIMENTS:
        if args.broadcasts is not None:
            kwargs["n_broadcasts"] = args.broadcasts
        if args.seed is not None:
            kwargs["seed"] = args.seed
    elif experiment_id == "fig11" and args.seed is not None:
        kwargs["seed"] = args.seed
    elif experiment_id == "fig15" and args.seed is not None:
        kwargs["seed"] = args.seed
    elif experiment_id == "faultsweep" and args.seed is not None:
        kwargs["seed"] = args.seed
    elif experiment_id == "serving":
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.clients is not None:
            kwargs["n_clients"] = args.clients
        if args.duration is not None:
            kwargs["duration_s"] = args.duration
    return kwargs


def _render_trace(args: argparse.Namespace) -> str:
    """Generate a (possibly sharded) workload trace and format a summary."""
    from repro.obs import MetricsRegistry
    from repro.parallel import generate_trace
    from repro.workload.trace import TraceConfig

    factory = TraceConfig.meerkat if args.app == "meerkat" else TraceConfig.periscope
    config = factory(
        scale=args.scale if args.scale is not None else 0.0005,
        seed=args.seed if args.seed is not None else 2016,
        workers=args.workers if args.workers is not None else 1,
        shards=args.shards if args.shards is not None else 0,
    )
    registry = MetricsRegistry()
    started = time.perf_counter()
    trace = generate_trace(
        config,
        cache_dir=args.cache_dir,
        registry=registry,
        cache_format=args.cache_format,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    elapsed = time.perf_counter() - started

    snapshot = registry.snapshot()
    dataset = trace.dataset
    cache_hit = snapshot["counters"].get("trace.cache_hits", {}).get("value", 0) > 0
    lines = [
        f"{config.app_name} trace — scale {config.scale:g}, seed {config.seed}, "
        f"{config.growth.days} days",
        f"broadcasts      {dataset.broadcast_count}",
        f"broadcasters    {dataset.broadcaster_count}",
        f"total views     {dataset.total_views}",
        f"generated in    {elapsed:.1f}s"
        + (f" ({dataset.broadcast_count / elapsed:.0f} broadcasts/s)" if elapsed > 0 else ""),
    ]
    # Per-phase wall times from the registry (graph is part of context).
    gauges = snapshot["gauges"]
    phases = [
        ("graph", "trace.graph_seconds", ""),
        ("context", "trace.context_seconds", ""),
        ("generate", "trace.generate_seconds", ""),
        ("merge", "trace.merge_seconds", " (streamed)"),
    ]
    for label, gauge_name, suffix in phases:
        if gauge_name in gauges:
            lines.append(f"phase {label:<9} {gauges[gauge_name]['value']:.2f}s{suffix}")
    if "trace.peak_rss_mb" in gauges:
        lines.append(f"peak RSS        {gauges['trace.peak_rss_mb']['value']:.0f} MB")
    if cache_hit:
        # A hit may have been served by any format's entry (cross-format
        # fall-through), so don't claim the requested format here.
        lines.append(
            f"dataset cache   hit ({args.cache_dir}, key {config.cache_key()})"
        )
    elif args.cache_dir:
        # An mmap entry is the streamed merge's own output; v2 goes
        # through a normal `put`.
        if args.cache_format == "mmap":
            stored = "mmap (streamed merge)"
        else:
            stored = args.cache_format
        lines.append(
            f"dataset cache   miss -> stored ({args.cache_dir}, "
            f"key {config.cache_key()}, format {stored})"
        )
    if args.run_dir:
        counters = snapshot["counters"]
        resumed = int(counters.get("trace.shards_resumed", {}).get("value", 0))
        retries = int(counters.get("trace.shard_retries", {}).get("value", 0))
        rebuilds = int(counters.get("trace.pool_rebuilds", {}).get("value", 0))
        detail = f"{resumed} shards resumed"
        if retries or rebuilds:
            detail += f", {retries} retries, {rebuilds} pool rebuilds"
        lines.append(f"run dir         {args.run_dir} ({detail})")
    shard_stats = snapshot["histograms"].get("trace.shard_seconds")
    if shard_stats and shard_stats["count"]:
        workers = int(snapshot["gauges"]["trace.workers"]["value"])
        lines.append(
            f"shards          {shard_stats['count']} over {workers} worker(s): "
            f"mean {shard_stats['mean']:.2f}s, max {shard_stats['max']:.2f}s"
        )
    return "\n".join(lines)


def _resume_invocation(args: argparse.Namespace) -> str:
    """The exact command line that continues an interrupted trace run."""
    parts = ["repro", "trace", "--run-dir", str(args.run_dir), "--resume"]
    if args.scale is not None:
        parts += ["--scale", f"{args.scale:g}"]
    if args.seed is not None:
        parts += ["--seed", str(args.seed)]
    if args.workers is not None:
        parts += ["--workers", str(args.workers)]
    if args.shards is not None:
        parts += ["--shards", str(args.shards)]
    if args.app != "periscope":
        parts += ["--app", args.app]
    if args.cache_dir:
        parts += ["--cache-dir", str(args.cache_dir)]
    if args.cache_format != "mmap":
        parts += ["--cache-format", args.cache_format]
    if args.sanitize:
        parts.append("--sanitize")
    return " ".join(parts)


def _interrupt_summary(args: argparse.Namespace) -> str:
    """Progress report printed when a trace run is interrupted (Ctrl-C)."""
    if not args.run_dir:
        return "interrupted (no --run-dir; progress not checkpointed)"
    from repro.parallel import read_manifest

    manifest = read_manifest(args.run_dir)
    if manifest is None:
        return f"interrupted before any shard was checkpointed in {args.run_dir}"
    done = len(manifest.get("done", []))
    total = len(manifest.get("shard_plan", []))
    return (
        f"interrupted: {done}/{total} shards checkpointed in {args.run_dir}\n"
        f"resume with: {_resume_invocation(args)}"
    )


def _render_chaos(args: argparse.Namespace) -> str:
    """Run the chaos pair and format the naive/resilient comparison."""
    from repro.faults.scenario import run_chaos_pair

    seed = args.seed if args.seed is not None else 7
    intensity = args.intensity if args.intensity is not None else 1.0
    with _sanitizer_guard(args):
        naive, resilient = run_chaos_pair(seed=seed, fault_intensity=intensity)
    rows = [
        ("crawler coverage", f"{naive.coverage:.3f}", f"{resilient.coverage:.3f}"),
        ("chunk delivery ratio", f"{naive.delivery_ratio:.3f}", f"{resilient.delivery_ratio:.3f}"),
        ("mean e2e delay (s)", f"{naive.mean_e2e_delay_s:.2f}", f"{resilient.mean_e2e_delay_s:.2f}"),
        ("p99 e2e delay (s)", f"{naive.p99_e2e_delay_s:.2f}", f"{resilient.p99_e2e_delay_s:.2f}"),
        ("viewer poll failures", str(naive.viewer_poll_failures), str(resilient.viewer_poll_failures)),
        ("viewer retries", str(naive.viewer_retries), str(resilient.viewer_retries)),
        ("edge failovers", str(naive.viewer_failovers), str(resilient.viewer_failovers)),
        ("stale chunklists served", str(naive.stale_served), str(resilient.stale_served)),
        ("crawler queries failed", str(naive.queries_failed), str(resilient.queries_failed)),
        ("crawler retries", str(naive.crawler_retries), str(resilient.crawler_retries)),
    ]
    width = max(len(name) for name, _, _ in rows)
    lines = [
        f"Chaos run — seed {seed}, fault intensity {intensity:g}, "
        f"{naive.faults_injected} faults, availability {naive.availability:.3f}",
        f"{'':<{width}}  {'naive':>10}  {'resilient':>10}",
    ]
    lines += [f"{name:<{width}}  {n:>10}  {r:>10}" for name, n, r in rows]
    lines.append(
        "Resilient strictly dominates naive."
        if resilient.dominates(naive)
        else (
            "No faults injected — postures are identical."
            if intensity == 0
            else "WARNING: resilient does not strictly dominate naive at this point."
        )
    )
    return "\n".join(lines)


def _render_serve_bench(args: argparse.Namespace) -> str:
    """Run the closed-loop serving benchmark and format its report."""
    from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig, run_serve_bench

    n_clients = args.clients if args.clients is not None else 16
    duration_s = args.duration if args.duration is not None else 60.0
    flash = None
    if args.flash_crowd:
        flash = FlashCrowdConfig(
            start_s=duration_s / 3.0,
            duration_s=duration_s / 3.0,
            extra_clients=15 * n_clients,
            think_time_s=0.15,
        )
    config = LoadGenConfig(
        n_clients=n_clients, duration_s=duration_s, flash_crowd=flash
    )
    report = run_serve_bench(
        seed=args.seed if args.seed is not None else 2016,
        config=config,
        admission=not args.no_admission,
    )
    return report.render()


def _sanitizer_guard(args: argparse.Namespace, workers: int = 1):
    """The runtime determinism sanitizer when ``--sanitize``, else a no-op.

    The sanitizer only observes — a clean run's output is byte-identical
    with it on or off (test-enforced) — so arming it never changes results,
    it only converts hidden wall-clock/global-RNG reads into hard errors.
    """
    if not args.sanitize:
        from contextlib import nullcontext

        return nullcontext()
    from repro.lint.sanitizer import DeterminismSanitizer

    return DeterminismSanitizer(workers=workers)


class _TargetExit(Exception):
    """Ends a special target early: the message goes to stderr and the
    CLI exits with ``code`` (2 for a usage error, 130 for Ctrl-C)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _render_metrics(args: argparse.Namespace) -> str:
    """Run the instrumented scenario and dump its registry as JSON."""
    from repro.obs.scenario import run_metrics_scenario

    return run_metrics_scenario(seed=args.seed if args.seed is not None else 7).as_json()


def _run_trace_target(args: argparse.Namespace) -> str:
    """The 'trace' target: a usage problem or Ctrl-C ends it cleanly."""
    if args.resume and not args.run_dir:
        raise _TargetExit(2, "error: --resume requires --run-dir")
    try:
        with _sanitizer_guard(args, workers=args.workers if args.workers is not None else 1):
            return _render_trace(args)
    except KeyboardInterrupt:
        # The manifest is flushed on every shard publish, so the run
        # dir is already consistent — report progress, no traceback.
        raise _TargetExit(130, _interrupt_summary(args)) from None
    except ValueError as error:
        # RunDirError or a malformed REPRO_TRACE_* knob: a usage
        # problem, not a crash.
        raise _TargetExit(2, f"error: {error}") from None


#: Targets that run alone and print one report: what each does (for the
#: "cannot be combined" error) and its renderer.
_SPECIAL_TARGETS = {
    "metrics": ("emits a JSON snapshot", _render_metrics),
    "trace": ("generates a dataset", _run_trace_target),
    "serve-bench": ("prints a serving-layer report", _render_serve_bench),
    "chaos": ("prints a naive/resilient comparison", _render_chaos),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "lint":
        # The linter owns its flags (--json, --list-rules); hand the rest
        # of the command line over before the experiment parser sees it.
        from repro.lint.cli import main as lint_main

        return lint_main(arguments[1:])

    parser = build_parser()
    args = parser.parse_args(arguments)

    sink = open(args.out, "a", encoding="utf-8") if args.out else None

    def emit(text: str) -> None:
        print(text)
        if sink is not None:
            sink.write(text + "\n")

    try:
        return _dispatch(parser, args, emit)
    finally:
        if sink is not None:
            sink.close()


def _dispatch(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    emit: Callable[[str], None],
) -> int:
    """Run what the command line asks for; returns the exit code."""
    if args.list:
        for experiment_id in list_experiments():
            registered = get_experiment(experiment_id)
            emit(f"{experiment_id:<8} {registered.title}")
        return 0

    if args.validate:
        from repro.validation import render_scorecard, validate

        outcomes = validate(kwargs_for=lambda experiment_id: _kwargs_for(experiment_id, args))
        emit(render_scorecard(outcomes))
        return 0 if all(o.passed for o in outcomes) else 1

    special = next((t for t in args.experiments if t in _SPECIAL_TARGETS), None)
    if special is not None:
        what, render = _SPECIAL_TARGETS[special]
        if len(args.experiments) > 1 or args.all:
            print(
                f"error: '{special}' {what} and cannot be combined with other "
                "experiments",
                file=sys.stderr,
            )
            return 2
        try:
            emit(render(args))
        except _TargetExit as stop:
            print(stop, file=sys.stderr)
            return stop.code
        return 0

    targets = list_experiments() if args.all else list(args.experiments)
    if not targets:
        parser.print_usage()
        print("error: name at least one experiment, or use --all / --list", file=sys.stderr)
        return 2

    known = set(list_experiments())
    unknown = [t for t in targets if t not in known]
    if unknown:
        print(f"error: unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(list_experiments())} (plus the special targets {', '.join(map(repr, _SPECIAL_TARGETS))})", file=sys.stderr)
        return 2

    for index, experiment_id in enumerate(targets):
        if index:
            emit("")
        registered = get_experiment(experiment_id)
        if args.expect and registered.paper_expectation:
            emit(f"[paper] {registered.paper_expectation}")
        started = time.perf_counter()
        result = run_experiment(experiment_id, **_kwargs_for(experiment_id, args))
        elapsed = time.perf_counter() - started
        emit(result.text)
        emit(f"[{experiment_id} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
