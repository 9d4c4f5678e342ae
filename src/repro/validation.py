"""The reproduction scorecard: programmatic paper-claim validation.

Every headline claim of the paper is encoded as a :class:`Claim` — an
experiment to run, a value to extract, and a quantitative acceptance
check.  :func:`validate` runs them all and returns a scorecard, giving
the reproduction a single self-check entry point::

    python -m repro --validate

The claims deliberately check the *shape* results (who wins, by what
factor, where structure appears), with tolerances wide enough to hold
across seeds but tight enough that a broken model fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.registry import ExperimentResult, run_experiment


@dataclass(frozen=True)
class Claim:
    """One paper claim and its acceptance test."""

    claim_id: str
    experiment_id: str
    description: str
    paper_value: str
    extract: Callable[[ExperimentResult], float]
    check: Callable[[float], bool]

    def evaluate(self, result: ExperimentResult) -> "ClaimOutcome":
        value = self.extract(result)
        return ClaimOutcome(claim=self, measured=value, passed=bool(self.check(value)))


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    measured: float
    passed: bool


def _within(low: float, high: float) -> Callable[[float], bool]:
    return lambda value: low <= value <= high


CLAIMS: tuple[Claim, ...] = (
    Claim(
        "periscope-growth", "fig1",
        "Periscope daily broadcasts grow >3x over the window",
        ">3x",
        lambda r: r.data["periscope_growth"],
        lambda v: v > 2.8,
    ),
    Claim(
        "meerkat-decline", "fig1",
        "Meerkat daily broadcasts roughly halve in a month",
        "~0.5x",
        lambda r: r.data["meerkat_growth"],
        _within(0.3, 0.8),
    ),
    Claim(
        "durations-under-10min", "fig3",
        "85% of broadcasts last under 10 minutes",
        "0.85",
        lambda r: r.data["periscope_under_10min"],
        _within(0.80, 0.90),
    ),
    Claim(
        "meerkat-zero-viewers", "fig4",
        "~60% of Meerkat broadcasts get no viewers",
        "0.60",
        lambda r: r.data["meerkat_zero_viewer_fraction"],
        _within(0.52, 0.68),
    ),
    Claim(
        "hls-spillover-share", "fig4",
        "5.77% of Periscope broadcasts exceed the ~100-viewer RTMP tier",
        "0.0577",
        lambda r: r.data["periscope_some_hls_fraction"],
        _within(0.03, 0.09),
    ),
    Claim(
        "engagement-tail", "fig5",
        "~10% of broadcasts collect >1000 hearts",
        "0.10",
        lambda r: r.data["periscope_over_1000_hearts"],
        _within(0.05, 0.16),
    ),
    Claim(
        "viewer-skew", "fig6",
        "top 15% of viewers watch ~10x the median viewer",
        "10x",
        lambda r: r.data["periscope_top15_vs_median"],
        _within(5.0, 20.0),
    ),
    Claim(
        "follower-effect", "fig7",
        "followers and per-broadcast viewers positively correlated",
        "positive",
        lambda r: r.data["rank_correlation"],
        lambda v: v > 0.05,
    ),
    Claim(
        "graph-twitter-like", "table2",
        "follow graph assortativity is non-positive (Twitter-like)",
        "-0.057",
        lambda r: r.data["rows"]["Periscope (generated)"]["assortativity"],
        lambda v: v < 0.05,
    ),
    Claim(
        "rtmp-total-delay", "fig11",
        "RTMP end-to-end delay ~1.4 s",
        "1.4 s",
        lambda r: r.data["rtmp_total_s"],
        _within(0.8, 2.2),
    ),
    Claim(
        "hls-total-delay", "fig11",
        "HLS end-to-end delay ~11.7 s",
        "11.7 s",
        lambda r: r.data["hls_total_s"],
        _within(8.0, 15.0),
    ),
    Claim(
        "hls-rtmp-ratio", "fig11",
        "HLS delay is ~8.4x RTMP delay",
        "8.4x",
        lambda r: r.data["hls_rtmp_ratio"],
        _within(5.0, 14.0),
    ),
    Claim(
        "polling-half-interval", "fig12",
        "mean polling delay at a 2 s interval is ~1 s",
        "1.0 s",
        lambda r: r.data["mean_of_means"][2.0],
        _within(0.75, 1.25),
    ),
    Claim(
        "polling-resonance", "fig12",
        "per-broadcast means at the resonant 3 s interval spread widely",
        "varies 1-2 s",
        lambda r: r.data["spread_3s"],
        lambda v: v > 0.3,
    ),
    Claim(
        "rtmp-cpu-dominates", "fig14",
        "RTMP CPU at 500 viewers is several times HLS CPU",
        ">>HLS",
        lambda r: (
            r.data["curves"]["rtmp"][-1].cpu_percent
            / r.data["curves"]["hls"][-1].cpu_percent
        ),
        lambda v: v > 3.0,
    ),
    Claim(
        "colocation-gap", "fig15",
        "co-located DC pairs beat nearby pairs by >0.25 s",
        ">0.25 s",
        lambda r: r.data["colocation_gap_s"],
        lambda v: v > 0.2,
    ),
    Claim(
        "rtmp-smooth", "fig16",
        "RTMP playback is already smooth at P=1 s",
        "stall ~0",
        lambda r: r.data["median_stall"][1.0],
        lambda v: v < 0.05,
    ),
    Claim(
        "prebuffer-optimization", "fig17",
        "P=6 s saves multiple seconds of buffering delay vs P=9 s",
        "~3 s (~50%)",
        lambda r: r.data["delay_saving_s"],
        _within(1.5, 4.5),
    ),
    Claim(
        "attack-succeeds", "fig18",
        "the tampering attack succeeds against plaintext RTMP",
        "succeeds",
        lambda r: float(r.data["rows"]["attack"]["attack_succeeded"]),
        lambda v: v == 1.0,
    ),
    Claim(
        "defense-detects-all", "fig18",
        "the signature defense detects every tampered frame",
        "100%",
        lambda r: (
            r.data["rows"]["attack_with_defense"]["detected"]
            / max(r.data["rows"]["attack_with_defense"]["tampered"], 1)
        ),
        lambda v: v == 1.0,
    ),
)


def validate(
    claims: tuple[Claim, ...] = CLAIMS,
    kwargs_for: Callable[[str], dict[str, Any]] = lambda experiment_id: {},
) -> list[ClaimOutcome]:
    """Run every claim's experiment (cached per experiment) and evaluate;
    ``kwargs_for(experiment_id)`` gives its arguments (the CLI's flags)."""
    results: dict[str, ExperimentResult] = {}
    outcomes = []
    for claim in claims:
        if claim.experiment_id not in results:
            results[claim.experiment_id] = run_experiment(
                claim.experiment_id, **kwargs_for(claim.experiment_id)
            )
        outcomes.append(claim.evaluate(results[claim.experiment_id]))
    return outcomes


def render_scorecard(outcomes: list[ClaimOutcome]) -> str:
    """Human-readable pass/fail table."""
    lines = ["Reproduction scorecard", ""]
    width = max(len(o.claim.description) for o in outcomes)
    passed = 0
    for outcome in outcomes:
        mark = "PASS" if outcome.passed else "FAIL"
        passed += outcome.passed
        lines.append(
            f"[{mark}] {outcome.claim.description:<{width}}  "
            f"paper: {outcome.claim.paper_value:<12} measured: {outcome.measured:.3g}"
        )
    lines.append("")
    lines.append(f"{passed}/{len(outcomes)} claims hold")
    return "\n".join(lines)
