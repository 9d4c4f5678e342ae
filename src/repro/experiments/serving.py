"""Serving-layer experiment: the global-list flow under a flash crowd.

Not a paper figure — a systems experiment over the reproduced platform's
serving tier (:mod:`repro.service`).  The paper's measurements imply a
global-list endpoint that stays responsive while broadcast popularity
spikes by orders of magnitude; this experiment reproduces that flow with
the closed-loop driver and compares three postures on one seed:

* **baseline** — steady polling clients, admission control armed,
* **flash** — the same system hit by a flash crowd, admission armed,
* **unguarded** — the same flash crowd with admission disabled.

The claim under test: at baseline the admission layer is invisible (zero
shed, zero errors); under the flash crowd it sheds the excess at the door
while the p99 latency of admitted requests stays bounded, whereas the
unguarded system lets the queue grow and its tail latency blow past the
guarded run's.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.registry import experiment
from repro.service.loadgen import FlashCrowdConfig, LoadGenConfig, run_serve_bench


def flash_config(n_clients: int = 16, duration_s: float = 60.0) -> LoadGenConfig:
    """The flash posture: 15 extra clients per polling client, thinking
    0.15 s, over the middle third of the run."""
    return LoadGenConfig(
        n_clients=n_clients,
        duration_s=duration_s,
        flash_crowd=FlashCrowdConfig(
            start_s=duration_s / 3.0,
            duration_s=duration_s / 3.0,
            extra_clients=15 * n_clients,
            think_time_s=0.15,
        ),
    )


@experiment(
    "serving",
    "Serving tier: global-list flow under a flash crowd (admission on/off)",
    "Baseline sheds nothing and errors nothing; under the flash crowd the "
    "admission layer sheds the excess at the door while keeping the p99 of "
    "admitted requests bounded — the unguarded posture instead queues "
    "everything and its tail latency exceeds the guarded run's.",
)
def run(
    seed: int = 2016,
    n_clients: int = 16,
    duration_s: float = 60.0,
) -> tuple[dict, str]:
    baseline_config = LoadGenConfig(n_clients=n_clients, duration_s=duration_s)
    crowd_config = flash_config(n_clients, duration_s)
    baseline = run_serve_bench(seed=seed, config=baseline_config)
    flash = run_serve_bench(seed=seed, config=crowd_config)
    unguarded = run_serve_bench(seed=seed, config=crowd_config, admission=False)

    rows = {}
    for name, report in (
        ("baseline", baseline), ("flash", flash), ("unguarded", unguarded),
    ):
        rows[name] = {
            "requests": report.requests,
            "ok": report.ok,
            "shed": report.shed,
            "errors": report.errors + report.unavailable,
            "retries": report.retries,
            "p50_ms": report.latency_p50_s * 1e3,
            "p99_ms": report.latency_p99_s * 1e3,
        }

    baseline_clean = baseline.shed == 0 and baseline.error_rate == 0.0
    admission_engaged = flash.shed > 0
    tail_bounded = flash.latency_p99_s < unguarded.latency_p99_s
    data = {
        "baseline": baseline.to_dict(),
        "flash": flash.to_dict(),
        "unguarded": unguarded.to_dict(),
        "baseline_clean": baseline_clean,
        "admission_engaged": admission_engaged,
        "tail_bounded": tail_bounded,
    }
    verdict = [
        "Baseline "
        + ("sheds nothing and errors nothing." if baseline_clean
           else "UNEXPECTEDLY shed or errored."),
        "Flash crowd "
        + ("engages admission control" if admission_engaged
           else "DOES NOT engage admission control")
        + f" ({flash.shed} shed, {flash.shed_rate:.0%} of requests).",
        "Guarded p99 "
        + ("stays below" if tail_bounded else "DOES NOT stay below")
        + f" the unguarded tail ({flash.latency_p99_s * 1e3:.1f} ms vs "
        + f"{unguarded.latency_p99_s * 1e3:.1f} ms).",
    ]
    text = "\n".join(
        [
            format_table(
                rows,
                title="Serving tier under flash crowd — admission on vs off",
                row_header="posture",
            ),
            "",
            *verdict,
        ]
    )
    return data, text
