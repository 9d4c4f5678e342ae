"""Tests for the experiment registry and an end-to-end run of every
table/figure at reduced scale, asserting each one's headline claim."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.registry import ExperimentResult, get_experiment

#: Small-but-sufficient parameters shared by the slow experiments.
SCALE = 0.0002
SEED = 77
CAMPAIGN = 16


@pytest.fixture(scope="module", autouse=True)
def _clear_context_caches():
    from repro.experiments import context

    context.clear_caches()
    yield
    context.clear_caches()


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = repro.list_experiments()
        expected = {
            "table1", "table2",
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "faultsweep", "serving",
        }
        assert set(ids) == expected

    def test_paper_order_survives_an_early_runner_import(self):
        """``--all``, the golden check and perfbench's ``paper_all`` walk
        ``list_experiments()``; importing one runner module before the
        registry loads the rest must not move that runner to the front."""
        code = (
            "import repro.experiments.fig01\n"
            "from repro.experiments.registry import list_experiments\n"
            "print(' '.join(list_experiments()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert process.returncode == 0, process.stderr
        paper_order = ["table1", "table2", *(f"fig{n}" for n in range(1, 19))]
        assert process.stdout.split() == [*paper_order, "faultsweep", "serving"]

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            repro.run_experiment("fig99")

    def test_registered_metadata(self):
        registered = get_experiment("fig11")
        assert "delay breakdown" in registered.title.lower()
        assert registered.paper_expectation

    def test_titles_come_from_the_registration(self):
        result = repro.run_experiment("fig18")
        assert (result.experiment_id, result.title) == ("fig18", get_experiment("fig18").title)
        experiments_md = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
        headings = re.findall(r"^## (.*)$", experiments_md.read_text("utf-8"), re.M)
        titles = [get_experiment(e).title for e in repro.list_experiments()]
        assert sorted(headings) == sorted(titles)


class TestTraceExperiments:
    def test_table1_scaled_counts(self):
        result = repro.run_experiment("table1", scale=SCALE, seed=SEED)
        assert isinstance(result, ExperimentResult)
        periscope_raw = result.data["measured"]["Periscope"]
        assert periscope_raw["broadcasts"] == pytest.approx(19.6e6 * SCALE, rel=0.2)
        periscope = result.data["rescaled"]["Periscope"]
        meerkat = result.data["rescaled"]["Meerkat"]
        assert meerkat["broadcasts"] < periscope["broadcasts"] / 20

    def test_table2_twitter_like_structure(self):
        result = repro.run_experiment("table2", scale=SCALE, seed=SEED)
        row = result.data["rows"]["Periscope (generated)"]
        assert row["assortativity"] < 0.05
        assert row["clustering_coef"] > 0.02
        assert row["avg_path"] < 6.0

    def test_fig1_growth_and_decline(self):
        result = repro.run_experiment("fig1", scale=SCALE, seed=SEED)
        assert result.data["periscope_growth"] > 2.5
        assert result.data["meerkat_growth"] < 0.85
        assert result.data["periscope_weekend_ratio"] > 1.0

    def test_fig2_user_ratios(self):
        result = repro.run_experiment("fig2", scale=SCALE, seed=SEED)
        assert result.data["periscope_viewer_growth"] > 1.5
        assert 4 < result.data["median_viewer_broadcaster_ratio"] < 40

    def test_fig3_durations(self):
        result = repro.run_experiment("fig3", scale=SCALE, seed=SEED)
        assert result.data["periscope_under_10min"] == pytest.approx(0.85, abs=0.05)

    def test_fig4_audience_shape(self):
        result = repro.run_experiment("fig4", scale=SCALE, seed=SEED)
        assert result.data["meerkat_zero_viewer_fraction"] == pytest.approx(0.60, abs=0.08)
        assert result.data["periscope_zero_viewer_fraction"] < 0.05
        assert 0.02 < result.data["periscope_some_hls_fraction"] < 0.12

    def test_fig5_engagement_tails(self):
        result = repro.run_experiment("fig5", scale=SCALE, seed=SEED)
        assert result.data["periscope_over_1000_hearts"] == pytest.approx(0.10, abs=0.06)
        assert result.data["periscope_over_100_comments"] == pytest.approx(0.10, abs=0.06)

    def test_fig6_activity_skew(self):
        result = repro.run_experiment("fig6", scale=SCALE, seed=SEED)
        assert result.data["periscope_top15_vs_median"] > 4.0

    def test_fig7_follower_effect(self):
        result = repro.run_experiment("fig7", scale=SCALE, seed=SEED)
        assert result.data["rank_correlation"] > 0.05
        buckets = result.data["mean_viewers_by_bucket"]
        labels = list(buckets)
        assert buckets[labels[-1]] > buckets[labels[0]]

    def test_fig8_architecture_facts(self):
        result = repro.run_experiment("fig8")
        facts = result.data["facts"]
        assert facts["video ingest protocol"] == "rtmp"
        assert "100" in facts["push tier size"]
        assert result.data["message_latency_s"] < 0.5
        assert "PubNub" in result.text

    def test_fig10_timeline_ordering(self):
        result = repro.run_experiment("fig10", seed=7, duration_s=60.0)
        timeline = result.data["timeline"]
        rtmp = timeline["rtmp"]
        assert (
            rtmp["1_capture"] < rtmp["2_wowza_arrival"]
            < rtmp["3_viewer_arrival"] <= rtmp["4_played"]
        )
        hls = timeline["hls"]
        assert (
            hls["5_capture"] < hls["6_wowza_arrival"] < hls["7_chunk_ready"]
            < hls["11_fastly_available"] <= hls["14_viewer_poll"]
            < hls["15_viewer_arrival"] <= hls["17_played"]
        )
        assert result.data["hls_total_s"] > result.data["rtmp_total_s"]

    def test_fig9_catalog_facts(self):
        result = repro.run_experiment("fig9")
        assert result.data["wowza_count"] == 8
        assert result.data["fastly_count"] == 23
        assert result.data["colocated_count"] == 6
        assert result.data["same_continent_count"] == 7


class TestDelayExperiments:
    def test_fig11_breakdown_shape(self):
        result = repro.run_experiment("fig11", repetitions=3, duration_s=75.0)
        assert 5 < result.data["hls_rtmp_ratio"] < 15  # paper: 8.4x
        hls = result.data["hls"].components
        assert hls["buffering"] > hls["chunking"] > hls["polling"]

    def test_fig12_polling_means(self):
        result = repro.run_experiment("fig12", n_broadcasts=CAMPAIGN, seed=SEED)
        means = result.data["mean_of_means"]
        assert means[2.0] == pytest.approx(1.0, abs=0.25)
        assert means[4.0] == pytest.approx(2.0, abs=0.35)
        # Resonant 3 s: per-broadcast means spread far more than 2 s.
        assert result.data["spread_3s"] > 0.3

    def test_fig13_polling_variance(self):
        result = repro.run_experiment("fig13", n_broadcasts=CAMPAIGN, seed=SEED)
        medians = result.data["median_std"]
        assert medians[2.0] == pytest.approx(2.0 / np.sqrt(12), abs=0.2)
        assert medians[4.0] == pytest.approx(4.0 / np.sqrt(12), abs=0.3)
        assert medians[3.0] < medians[2.0]  # resonance drifts instead of cycling

    def test_fig14_cpu_curves(self):
        result = repro.run_experiment("fig14")
        curves = result.data["curves"]
        assert curves["rtmp"][-1].cpu_percent > 3 * curves["hls"][-1].cpu_percent

    def test_fig15_geolocation(self):
        result = repro.run_experiment("fig15", broadcasts_per_pair=4, chunks_per_broadcast=15)
        assert result.data["colocation_gap_s"] > 0.2
        medians = result.data["medians"]
        assert medians["co-located"] < 0.2

    def test_fig16_rtmp_playback(self):
        result = repro.run_experiment("fig16", n_broadcasts=CAMPAIGN, seed=SEED)
        assert result.data["median_stall"][1.0] < 0.05
        # The >5 s tail is a rare event; on a small campaign assert the
        # bursty-upload tail exists at all (some broadcast well above the
        # ~1 s prebuffer baseline) without requiring the 5 s crossing.
        delays = result.data["sweep"][1.0]["buffering_delay"]
        assert result.data["long_delay_fraction_p1"] < 0.35
        assert float(np.max(delays)) > 2.0

    def test_fig17_hls_optimization(self):
        result = repro.run_experiment("fig17", n_broadcasts=CAMPAIGN, seed=SEED)
        assert abs(result.data["median_stall_6s"] - result.data["median_stall_9s"]) < 0.02
        assert result.data["delay_saving_s"] > 1.5

    def test_fig18_attack_and_defense(self):
        result = repro.run_experiment("fig18")
        rows = result.data["rows"]
        assert rows["attack"]["attack_succeeded"]
        assert not rows["attack_with_defense"]["attack_succeeded"]
        assert rows["no_attack"]["viewer_black"] == 0

    def test_results_render_text(self):
        result = repro.run_experiment("fig14")
        assert str(result) == result.text
        assert "Figure 14" in result.text


class TestRenderedFigures:
    """Every experiment's text output must contain its rendered figure."""

    def test_trace_figures_contain_ascii_plots(self):
        for experiment_id, marker in [
            ("fig3", "CDF"),
            ("fig4", "log scale"),
            ("fig12", "legend:"),
        ]:
            result = repro.run_experiment(
                experiment_id, **({"scale": SCALE, "seed": SEED}
                                  if experiment_id in ("fig3", "fig4")
                                  else {"n_broadcasts": CAMPAIGN, "seed": SEED})
            )
            assert marker in result.text, experiment_id

    def test_fig11_contains_stacked_bars(self):
        result = repro.run_experiment("fig11", repetitions=2, duration_s=60.0)
        assert "legend:" in result.text
        assert "|" in result.text  # the bar chart body
        assert "rtmp (paper)" in result.text

    def test_fig1_contains_series_plot(self):
        result = repro.run_experiment("fig1", scale=SCALE, seed=SEED)
        assert "day" in result.text
        assert "legend: *=periscope" in result.text

    def test_every_experiment_mentions_its_figure_number(self):
        for experiment_id in ("fig14", "fig15", "fig18", "fig9"):
            result = repro.run_experiment(experiment_id)
            number = experiment_id.replace("fig", "")
            assert f"Figure {number}" in result.text
