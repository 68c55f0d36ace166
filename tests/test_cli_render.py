"""Tests for the CLI entry point and the ASCII renderer."""

from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.common import ExperimentResult, Row
from repro.render import render_bars, render_summary


@pytest.fixture
def sample_result():
    return ExperimentResult(
        experiment="Demo",
        description="demo rows",
        rows=[
            Row("w1", "a", 1.0, remote_ratio=0.1),
            Row("w1", "b", 2.0, remote_ratio=0.5),
            Row("w2", "a", 0.5),
        ],
        summary={"gmean_a": 0.75, "gmean_b": 2.0},
    )


class TestRender:
    def test_bars_scale_to_peak(self, sample_result):
        text = render_bars(sample_result, width=10)
        lines = text.splitlines()
        b_line = next(ln for ln in lines if ln.strip().startswith("b"))
        assert "█" * 10 in b_line  # the peak value fills the width
        assert "rr=0.50" in b_line

    def test_normalisation(self, sample_result):
        text = render_bars(sample_result, normalise_to="a")
        assert " 1.000" in text
        assert " 2.000" in text

    def test_missing_cells_are_skipped(self, sample_result):
        text = render_bars(sample_result)
        # w2 has no config 'b': its group renders only 'a'
        w2_block = text.split("-- w2")[1]
        assert "b " not in w2_block

    def test_width_validation(self, sample_result):
        with pytest.raises(ValueError):
            render_bars(sample_result, width=2)

    def test_summary_rendering(self, sample_result):
        text = render_summary(sample_result)
        assert "gmean_a" in text
        assert "0.7500" in text

    def test_empty_summary(self):
        result = ExperimentResult("X", "d", rows=[Row("w", "c", 1.0)])
        assert "no summary" in render_summary(result)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "STE" in out
        assert "CLAP" in out
        assert "fig18" in out

    def test_run_default_policies(self, capsys):
        assert main(["run", "STE"]) == 0
        out = capsys.readouterr().out
        assert "S-64KB" in out
        assert "selections" in out

    def test_run_explicit_policy(self, capsys):
        assert main(["run", "BLK", "--policy", "S-2MB"]) == 0
        out = capsys.readouterr().out
        assert "S-2MB" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "STE"]) == 0
        out = capsys.readouterr().out
        assert "256KB" in out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "fig10", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_experiment_bars(self, capsys):
        assert main(["experiment", "fig10", "--quick", "--bars"]) == 0
        assert "█" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nope"]) == 2

    @pytest.mark.parametrize(
        "env, argv",
        [
            ({"REPRO_TELEMETRY": "1"}, ["sweep", "STE", "--runners", "2"]),
            ({"REPRO_TELEMETRY": "1"}, ["explore", "STE", "--budget", "3"]),
            ({}, ["sweep", "STE", "--runners", "2", "--no-cache"]),
            ({}, ["sweep", "STE", "--cell-timeout", "nan"]),
            ({"REPRO_CELL_TIMEOUT": "nan"}, ["sweep", "STE"]),
            ({"REPRO_LEASE_TTL": "soon"}, ["sweep", "STE", "--runners", "2"]),
            ({}, ["sweep", "STE", "--runners", "2", "--lease-ttl", "nan"]),
            ({"REPRO_LEASE_TTL": "nan"}, ["sweep", "STE", "--runners", "2"]),
            ({}, ["sweep", "STE", "--runners", "2", "--lease-ttl", "inf"]),
            ({"REPRO_LEASE_TTL": "inf"}, ["sweep", "STE", "--runners", "2"]),
            ({"REPRO_RUNNERS": "0"}, ["sweep", "STE"]),
            ({}, ["sweep", "STE", "--runners", "0"]),
            ({}, ["sweep", "STE", "--retries", "-1"]),
            ({}, ["sweep", "STE", "--jobs", "0"]),
            ({}, ["sweep", "STE", "--jobs", "-3"]),
            ({"REPRO_JOBS": "0"}, ["sweep", "STE"]),
            ({}, ["sweep", "STE", "--runners", "1", "--sweep-id",
                  "../../outside"]),
            ({"REPRO_SWEEP_ID": "/abs/dir"}, ["sweep", "STE", "--runners", "1"]),
            ({}, ["sweep", "--resume", "/abs/dir"]),
            ({}, ["sweep", "--resume", "nope"]),
            ({}, ["explore", "STE", "LPS", "BFS", "SSSP", "--budget", "0"]),
            ({}, ["explore", "STE", "--budget", "-3"]),
            ({}, ["run", "NOPE"]),
            ({}, ["sweep", "NOPE"]),
            ({}, ["explore", "NOPE"]),
            ({}, ["run", "STE", "--policy", "bogus"]),
            ({}, ["run", "STE", "--policy", "CLAP", "--policy", "S-3KB"]),
            ({}, ["run", "STE", "--seed", "-1"]),
            ({}, ["sweep", "STE", "--seed", "-1"]),
            ({}, ["explore", "STE", "--seed", "-1"]),
        ],
        ids=[
            "sweep-telemetry-env", "explore-telemetry-env", "no-cache",
            "nan-cell-timeout-flag", "nan-cell-timeout-env",
            "bad-lease-ttl-env", "nan-lease-ttl-flag", "nan-lease-ttl-env",
            "inf-lease-ttl-flag", "inf-lease-ttl-env",
            "zero-runners-env", "zero-runners-flag", "negative-retries",
            "zero-jobs-flag", "negative-jobs-flag", "zero-jobs-env",
            "path-sweep-id-flag", "path-sweep-id-env", "path-resume-id",
            "unknown-resume-id", "zero-budget", "negative-budget",
            "run-unknown-workload", "sweep-unknown-workload",
            "explore-unknown-workload", "unknown-policy",
            "malformed-policy-after-a-good-one", "run-negative-seed",
            "sweep-negative-seed", "explore-negative-seed",
        ],
    )
    def test_rejected_options_are_a_usage_error(
        self, monkeypatch, capsys, tmp_path, env, argv
    ):
        """A conflict or a malformed value, from a flag or only from the
        environment, exits 2 with one stderr line before anything runs."""
        import repro.sim.engine as engine

        simulated = []
        monkeypatch.setattr(
            engine, "run_simulation", lambda *a, **k: simulated.append(a)
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # One in-process job, so the spy above sees every simulation.
        monkeypatch.setenv("REPRO_JOBS", "1")
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert simulated == []

    def test_resuming_an_unreadable_sweep_is_a_usage_error(
        self, monkeypatch, capsys, tmp_path
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        sweep_dir = tmp_path / "sweeps" / "garbled"
        sweep_dir.mkdir(parents=True)
        (sweep_dir / "cells.pkl").write_bytes(b"not a pickle")
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--resume", "garbled"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "cells.pkl" in err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "STE"],
            ["sweep", "STE"],
            ["explore", "STE"],
            ["experiment", "fig6", "--quick"],
            ["report", "--quick"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_flag_selects_an_engine(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--engine", "staged"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_no_variable_selects_an_engine(self, monkeypatch, capsys,
                                           tmp_path):
        """``REPRO_ENGINE`` is read by nothing: a sweep under it replays
        batched and prints the default table."""
        import repro.sim.engine as engine

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep replayed on the staged pipeline")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["sweep", "STE", "--no-cache", "--jobs", "1"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(engine, "AccessPipeline", refuse)
        monkeypatch.setenv("REPRO_ENGINE", "staged")
        assert main(argv) == 0
        body = capsys.readouterr().out
        assert body.splitlines()[:-1] == default.splitlines()[:-1]
        assert body.splitlines()[-1].startswith("[sweep] 7 cells")
        sources = Path(engine.__file__).resolve().parents[1].rglob("*.py")
        assert not [
            path.name for path in sources
            if "REPRO_ENGINE" in path.read_text(encoding="utf-8")
        ]
