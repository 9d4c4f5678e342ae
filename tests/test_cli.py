"""Tests for the command-line interface."""

from __future__ import annotations

import gc
import warnings

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.experiments.registry import list_experiments, run_experiment


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in list_experiments():
            assert experiment_id in out

    def test_run_single_experiment(self, capsys):
        assert main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "regenerated in" in out

    def test_run_multiple_experiments(self, capsys):
        assert main(["fig9", "fig18"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "Figure 18" in out

    def test_expect_flag_shows_paper_claim(self, capsys):
        assert main(["fig14", "--expect"]) == 0
        out = capsys.readouterr().out
        assert "[paper]" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_no_arguments_fails(self, capsys):
        assert main([]) == 2

    def test_scale_option_forwarded(self, capsys):
        assert main(["table1", "--scale", "0.0001", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "scale=0.0001" in out

    def test_campaign_option_forwarded(self, capsys):
        assert main(["fig12", "--broadcasts", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12" in out

    def test_parser_help_mentions_all(self):
        parser = build_parser()
        help_text = parser.format_help()
        assert "--all" in help_text
        assert "--list" in help_text

    @pytest.mark.slow
    def test_all_runs_every_experiment(self, capsys, monkeypatch, golden):
        """``--all`` runs every experiment, and every result still has the
        ``data`` and ``text`` fingerprints recorded in GOLDEN.json."""
        results = {}

        def recording(experiment_id, **kwargs):
            results[experiment_id] = run_experiment(experiment_id, **kwargs)
            return results[experiment_id]

        monkeypatch.setattr(repro.cli, "run_experiment", recording)
        assert main(["--all"]) == 0
        out = capsys.readouterr().out
        for experiment_id in list_experiments():
            assert f"[{experiment_id} regenerated" in out
        assert golden.check_experiments(golden.load_golden(), results) == []

    def test_validate_passes_seed_scale_and_broadcasts(self, monkeypatch, capsys):
        import repro.validation as validation

        seen = {}

        def fake_validate(claims=validation.CLAIMS, kwargs_for=lambda _: {}):
            seen.update({eid: kwargs_for(eid) for eid in ("table1", "fig12", "fig11", "fig14")})
            return []

        monkeypatch.setattr(validation, "validate", fake_validate)
        monkeypatch.setattr(validation, "render_scorecard", lambda outcomes: "scorecard")
        argv = ["--validate", "--seed", "7", "--scale", "0.002", "--broadcasts", "12"]
        assert main(argv) == 0
        assert seen == {
            "table1": {"scale": 0.002, "seed": 7},
            "fig12": {"n_broadcasts": 12, "seed": 7},
            "fig11": {"seed": 7},
            "fig14": {},
        }

    def test_out_flag_tees_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["fig14", "--out", str(target)]) == 0
        capsys.readouterr()
        assert "Figure 14" in target.read_text()

    def test_list_closes_out_file(self, tmp_path, capsys):
        """Every return path closes the --out sink, --list included."""
        target = tmp_path / "list.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["--list", "--out", str(target)]) == 0
            gc.collect()
        capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert "fig14" in target.read_text()

    @pytest.mark.parametrize("target", ["metrics", "trace", "serve-bench", "chaos"])
    def test_special_target_cannot_combine_with_experiments(self, target, capsys):
        assert main([target, "fig14"]) == 2
        assert f"'{target}'" in capsys.readouterr().err
        assert main([target, "--all"]) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestTraceTarget:
    def test_trace_generates_and_summarizes(self, capsys):
        assert main(["trace", "--scale", "0.0001", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Periscope trace" in out
        assert "broadcasts" in out

    def test_trace_with_cache_reports_miss_then_hit(self, tmp_path, capsys):
        args = ["trace", "--scale", "0.0001", "--seed", "4", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert "miss" in capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert "hit" in capsys.readouterr().out

    def test_trace_reports_phase_timings(self, capsys):
        assert main(["trace", "--scale", "0.0001", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        for phase in ("graph", "context", "generate", "merge"):
            assert f"phase {phase}" in out

    def test_trace_cache_format_v2(self, tmp_path, capsys):
        args = [
            "trace", "--scale", "0.0001", "--seed", "4",
            "--cache-dir", str(tmp_path), "--cache-format", "v2",
        ]
        assert main(args) == 0
        assert "format v2" in capsys.readouterr().out
        assert list(tmp_path.glob("trace-*.cols.gz"))
        assert not list(tmp_path.glob("trace-*.cols"))
        # The mmap default reads the v2 entry as a hit.
        assert main(args[:-2]) == 0
        assert "hit" in capsys.readouterr().out

    def test_trace_meerkat_app(self, capsys):
        assert main(["trace", "--app", "meerkat", "--scale", "0.001", "--seed", "4"]) == 0
        assert "Meerkat trace" in capsys.readouterr().out

    def test_trace_sanitized_matches_unsanitized_output(self, capsys):
        """--sanitize is observational: the printed summary is unchanged."""
        args = ["trace", "--scale", "0.0001", "--seed", "4"]
        assert main(args) == 0
        plain = capsys.readouterr().out

        assert main(args + ["--sanitize"]) == 0
        sanitized = capsys.readouterr().out
        # Identical except the wall-runtime lines, which are host timing.
        def strip(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith(("generated in", "shards", "phase "))
            ]

        assert strip(sanitized) == strip(plain)

    def test_trace_run_dir_reports_and_resumes(self, tmp_path, capsys):
        args = [
            "trace", "--scale", "0.0001", "--seed", "4",
            "--shards", "4", "--run-dir", str(tmp_path / "run"),
        ]
        assert main(args) == 0
        assert "run dir" in capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert "4 shards resumed" in capsys.readouterr().out

    def test_trace_resume_requires_run_dir(self, capsys):
        assert main(["trace", "--resume"]) == 2
        assert "--resume requires --run-dir" in capsys.readouterr().err

    def test_trace_existing_run_dir_without_resume_fails(self, tmp_path, capsys):
        args = [
            "trace", "--scale", "0.0001", "--seed", "4",
            "--shards", "4", "--run-dir", str(tmp_path / "run"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "already contains a run" in err
        assert "Traceback" not in err

    def test_trace_bad_env_knob_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_SHARD_RETRIES", "many")
        assert main(["trace", "--scale", "0.0001", "--seed", "4"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_TRACE_SHARD_RETRIES" in err
        assert "Traceback" not in err

    def test_trace_keyboard_interrupt_exits_130_with_resume_hint(
        self, monkeypatch, tmp_path, capsys
    ):
        """Ctrl-C prints checkpoint progress and the resume command."""
        import repro.cli as cli_module
        from repro.crawler.arrayfile import write_arrays
        from repro.parallel import RunCheckpoint, plan_shards

        run_dir = tmp_path / "run"

        def interrupted(config, **kwargs):
            # Simulate dying mid-run with two shards already journaled.
            specs = plan_shards(config.growth.days, shards=4, workers=1)
            checkpoint = RunCheckpoint.open(run_dir, config.cache_key(), specs)
            import numpy as np

            for shard_id in (0, 1):
                temp = checkpoint.temp_path(shard_id)
                write_arrays(temp, {"x": np.arange(4, dtype=np.int64)})
                checkpoint.publish_shard(shard_id, temp)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_render_trace", lambda args: interrupted(
            __import__("repro.workload.trace", fromlist=["TraceConfig"]).TraceConfig.periscope(
                scale=0.0001, seed=4, shards=4
            )
        ))
        code = main(
            ["trace", "--scale", "0.0001", "--seed", "4", "--shards", "4",
             "--run-dir", str(run_dir)]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "2/4 shards checkpointed" in err
        assert f"repro trace --run-dir {run_dir} --resume" in err
        assert "--scale 0.0001 --seed 4" in err
        assert "Traceback" not in err

    def test_trace_sanitize_multiprocess_requires_pinned_hashseed(self, monkeypatch, capsys):
        from repro.lint.sanitizer import DeterminismViolation

        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with pytest.raises(DeterminismViolation, match="PYTHONHASHSEED"):
            main(["trace", "--scale", "0.0001", "--seed", "4", "--sanitize", "--workers", "2"])
        capsys.readouterr()


class TestLintDispatch:
    def test_lint_target_reaches_the_linter(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "unseeded-random" in capsys.readouterr().out

    def test_lint_flags_do_not_hit_experiment_parser(self, capsys):
        """--json belongs to the lint subcommand, not the experiment CLI."""
        assert main(["lint", "--json", "src/repro/lint/cli.py"]) == 0
        out = capsys.readouterr().out
        assert '"tool": "repro.lint"' in out
