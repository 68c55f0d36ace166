"""Tests of the benchmark harness itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest hostbench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import bench
from spans import self_times


def _span(span_id, parent, name, pid, t0, t1, **attrs):
    span = {"id": span_id, "parent": parent, "name": name, "pid": pid, "t0": t0, "t1": t1}
    if attrs:
        span["a"] = attrs
    return span


#: A pool-mode pass: the parent imports, runs one cache probe inside
#: run_cells, and a forked worker (pid 2) simulates one cell meanwhile.
POOL_SPANS = [
    _span("1:1", None, "import", 1, 5, 8),
    _span("1:2", None, "main", 1, 10, 100),
    _span("1:3", "1:2", "parallel.run_cells", 1, 20, 90),
    _span("1:4", "1:3", "parallel.cache_get", 1, 25, 30),
    _span("2:1", "1:3", "parallel.cell", 2, 30, 80),
    _span("2:2", "2:1", "engine.run", 2, 31, 79, accesses=100, warp_insts=400,
          fast_path_fraction=0.9, fault_batch_fraction=1.0),
    _span("2:3", "2:2", "batch.run", 2, 40, 70),
]


def test_self_time_subtracts_only_same_process_children():
    selfs = self_times(POOL_SPANS)
    assert selfs["1:2"] == 90 - 70          # main minus run_cells
    assert selfs["1:3"] == 70 - 5           # the worker's cell ran concurrently
    assert selfs["2:1"] == 50 - 48          # cell minus engine.run
    assert selfs["2:2"] == 48 - 30          # engine.run minus batch.run
    assert selfs["2:3"] == 30


def test_layer_metrics_attribute_the_whole_command():
    counts = bench.parse_sweep_lines("")
    metrics = bench.layer_metrics([(POOL_SPANS, 0, 110)], counts, records_n=0)
    assert set(metrics) == {name for name, _, _ in bench.PER_LAYER} - {"trace.overhead_frac"}
    assert metrics["python.startup_s"] == pytest.approx(5e-9)
    assert metrics["python.exit_s"] == pytest.approx(10e-9)
    # Only the gap between the import and main spans is unattributed.
    assert metrics["other_frac"] == pytest.approx(2 / 110)
    assert metrics["parallel.worker_busy_s"] == pytest.approx(50e-9)
    assert metrics["parallel.pool_idle_frac"] == pytest.approx(1 - 50 / (bench.JOBS * 70))
    assert metrics["batch.run_s"] == pytest.approx(30e-9)
    assert metrics["batch.ns_per_access"] == pytest.approx(30 / 100)
    assert metrics["batch.fast_path_fraction"] == pytest.approx(0.9)
    assert metrics["engine.self_s"] == pytest.approx(18e-9)
    assert metrics["pipeline.run_n"] == 0


POOL_LINE = (
    "[sweep] 66 cells, 51 simulated, 15 cache hits (22.7%), 3 deduped, "
    "2.9s wall"
)
COORDINATOR_LINE = (
    "[sweep] 7 cells, 7 simulated, 0 cache hits (0.0%), 2 leases stolen, "
    "1 traces materialized, 7 attached (1.7 MB shared), 0.6s wall"
)


def test_sweep_lines_are_summed_and_ids_skipped():
    stdout = "\n".join([
        "size perf/64KB remote",
        POOL_LINE,
        "[sweep] id: 0123abcd (resume with: repro sweep --resume 0123abcd)",
        COORDINATOR_LINE,
    ])
    counts = bench.parse_sweep_lines(stdout)
    assert counts["cells"] == 73
    assert counts["simulated"] == 58
    assert counts["cache_hits"] == 15
    assert counts["deduped"] == 3
    assert counts["leases_stolen"] == 2
    assert counts["shared_mb"] == pytest.approx(1.7)


def _fake_run(argv, stdout):
    return bench.CommandRun(
        argv=argv, returncode=0, wall_s=0.01, cpu_s=0.01, peak_rss_mb=1.0,
        stdout=stdout, stderr="", start_ns=0, end_ns=10_000_000,
    )


@pytest.mark.parametrize("matches", [True, False])
def test_reference_mismatch_counts_in_error_rate(monkeypatch, tmp_path, matches):
    body = "table\n" + POOL_LINE + "\n"
    monkeypatch.setattr(
        bench, "run_commands",
        lambda commands, pass_dir, cache_dir, traced=False: [
            _fake_run(argv, body) for argv in commands
        ],
    )
    expected = {
        "body": bench.body_digest(body) if matches else "0" * 64,
        "cache": bench.cache_digest(tmp_path / "empty")[0],
    }
    monkeypatch.setattr(bench, "load_reference", lambda: {
        bench.reference_key([["--quick", "--jobs", "1"]]): expected,
    })
    result = bench.run_workload(
        bench.BY_NAME["report-cold"], seed=7, seconds=0.0, trace=False,
        smoke=True, work=tmp_path,
    )
    assert result["attempted"] >= 1
    if matches:
        assert result["failed"] == 0 and result["error_rate"] == 0.0
    else:
        assert result["failed"] == result["attempted"]
        assert result["error_rate"] == 1.0
        assert result["problems"] == ["output differs from the reference"]


def test_passes_see_no_inherited_repro_variables(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_ENGINE", "staged")
    monkeypatch.setenv("REPRO_SURROGATE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    env = bench.hermetic_env(tmp_path, tmp_path / "cache")
    run = bench.run_command(
        [sys.executable, "-c",
         "import json, os; print(json.dumps({k: v for k, v in os.environ.items() "
         "if k.startswith('REPRO_')}))"],
        tmp_path, env,
    )
    assert json.loads(run.stdout) == {
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_TELEMETRY_DIR": str(tmp_path / "telemetry"),
    }
    assert env["PYTHONPATH"] == str(bench.SRC)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.BY_NAME)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench.PER_LAYER
    )


def test_smoke_run_is_correct_and_fast():
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "bench.py"), "--smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=90,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= len(bench.WORKLOADS)
    expected = {
        f"{w}/{name}" for w in bench.BY_NAME for name, _, _ in bench.PER_LAYER
    }
    assert set(last["metrics"]) == expected
