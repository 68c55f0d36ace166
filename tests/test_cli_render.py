"""Tests for the CLI entry point and the ASCII renderer."""

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
        ],
        ids=[
            "sweep-telemetry-env", "explore-telemetry-env", "no-cache",
            "nan-cell-timeout-flag", "nan-cell-timeout-env",
            "bad-lease-ttl-env", "nan-lease-ttl-flag", "nan-lease-ttl-env",
            "inf-lease-ttl-flag", "inf-lease-ttl-env",
            "zero-runners-env", "zero-runners-flag", "negative-retries",
            "zero-jobs-flag", "negative-jobs-flag", "zero-jobs-env",
            "path-sweep-id-flag", "path-sweep-id-env", "path-resume-id",
            "unknown-resume-id",
        ],
    )
    def test_rejected_options_are_a_usage_error(
        self, monkeypatch, capsys, tmp_path, env, argv
    ):
        """A conflict or a malformed value, from a flag or only from the
        environment, exits 2 with one stderr line before anything runs."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

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

    @pytest.mark.parametrize("engine", ["fused", "auto"])
    def test_unknown_engine_env_is_a_usage_error(
        self, monkeypatch, capsys, engine
    ):
        """A bad ``REPRO_ENGINE`` fails once, before any cell runs;
        commands without ``--engine`` ignore it."""
        import repro.__main__ as cli

        simulated = []
        monkeypatch.setattr(
            cli, "run_workload", lambda *a, **k: simulated.append(a)
        )
        monkeypatch.setenv("REPRO_ENGINE", engine)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "STE", "--policy", "CLAP"])
        assert excinfo.value.code == 2
        assert "staged, batched" in capsys.readouterr().err
        assert simulated == []
        assert main(["list"]) == 0
        assert "STE" in capsys.readouterr().out
