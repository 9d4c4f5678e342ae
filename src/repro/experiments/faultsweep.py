"""Fault sweep: graceful degradation of the resilient system vs the naive one.

Not a paper figure — a robustness experiment over the reproduced system:
sweep fault intensity and run the chaos scenario twice per point (naive and
resilient postures, identical seeds and fault schedules), then compare
crawler coverage and end-to-end chunk delay.  The claim under test: the
resilience layer (:mod:`repro.faults`) strictly dominates the naive system
on coverage, delivery ratio, and censored p99 delay at every intensity,
while a zero-intensity run reproduces the faultless baseline exactly.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.registry import experiment
from repro.faults.scenario import run_chaos_pair

INTENSITIES = (0.0, 0.5, 1.0, 1.5)


@experiment(
    "faultsweep",
    "Fault sweep: resilient vs naive degradation under injected chaos",
    "Coverage and delivery degrade gracefully with fault intensity for the "
    "resilient system and sharply for the naive one; the resilient posture "
    "strictly dominates at every non-zero intensity, and at intensity 0 the "
    "two are byte-identical.",
)
def run(
    seed: int = 7, intensities: tuple[float, ...] = INTENSITIES
) -> tuple[dict, str]:
    rows = {}
    points = []
    dominated_everywhere = True
    baseline_identical = True
    for intensity in intensities:
        naive, resilient = run_chaos_pair(seed=seed, fault_intensity=intensity)
        points.append({"naive": naive, "resilient": resilient})
        rows[f"{intensity:g}"] = {
            "cov_naive": naive.coverage,
            "cov_resil": resilient.coverage,
            "deliv_naive": naive.delivery_ratio,
            "deliv_resil": resilient.delivery_ratio,
            "p99_naive_s": naive.p99_e2e_delay_s,
            "p99_resil_s": resilient.p99_e2e_delay_s,
            "failovers": resilient.viewer_failovers,
            "retries": resilient.viewer_retries + resilient.crawler_retries,
        }
        if intensity == 0.0:
            baseline_identical = (
                naive.coverage == resilient.coverage
                and naive.chunks_delivered == resilient.chunks_delivered
                and naive.p99_e2e_delay_s == resilient.p99_e2e_delay_s
            )
        elif not resilient.dominates(naive):
            dominated_everywhere = False

    data = {
        "points": points,
        "dominated_everywhere": dominated_everywhere,
        "baseline_identical": baseline_identical,
    }
    verdict = []
    verdict.append(
        "Resilient strictly dominates naive (coverage, delivery, p99) at "
        + ("every" if dominated_everywhere else "NOT every")
        + " non-zero intensity."
    )
    verdict.append(
        "Zero-intensity run "
        + ("matches" if baseline_identical else "DOES NOT match")
        + " the faultless baseline exactly."
    )
    text = "\n".join(
        [
            format_table(
                rows,
                title="Fault sweep — naive vs resilient (censored p99 delay)",
                row_header="intensity",
            ),
            *verdict,
        ]
    )
    return data, text
