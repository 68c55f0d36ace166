"""What a command loads: the describe-and-read path stays light.

Building cells, fingerprinting them, reading the result cache,
summarising and printing need neither NumPy nor the replay engine, so
``import repro``, ``repro list`` and a sweep or an experiment answered
from the cache must not load them
(or the coordinator, the surrogate, the lint framework or the process
pool).  Each command runs in a fresh interpreter under ``-X importtime``,
which names every module the process imports.

The pool and the coordinator import the engine in the parent just
before they fork, so workers and runners inherit it instead of each
importing NumPy and the replay themselves; an ``os.register_at_fork``
hook pins that down.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Modules no describe-and-read command may load.
HEAVY = (
    "numpy",
    "repro.sim.engine",
    "repro.sim.batch",
    "repro.sim.pipeline",
    "repro.sim.machine",
    "repro.sim.coordinator",
    "repro.surrogate.active",
    "repro.analysis.core",
    "concurrent.futures",
)


def _env(tmp_path):
    """The caller's environment minus ``REPRO_*``, on a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return env


def _run(args, env, cwd):
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def _loaded(args, env, cwd):
    """(stdout, names of every module imported) for one command."""
    proc = _run(["-X", "importtime", *args], env, cwd)
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.stdout, names


@pytest.mark.parametrize(
    "args",
    [
        ["-c", "import repro"],
        ["-c", "import repro.__main__"],
        ["-m", "repro", "list"],
    ],
    ids=["import-repro", "import-cli", "repro-list"],
)
def test_describe_commands_load_no_simulator(args, tmp_path):
    _, names = _loaded(args, _env(tmp_path), tmp_path)
    assert "repro" in names
    assert sorted(names.intersection(HEAVY)) == []


@pytest.mark.parametrize(
    "command, simulated",
    [
        (["sweep", "STE"], 7),
        # Summarises with gmean: the summary step loads no NumPy either.
        (["experiment", "fig22", "--quick"], 9),
    ],
    ids=["sweep", "experiment-fig22"],
)
def test_cached_sweep_loads_no_simulator(command, simulated, tmp_path):
    env = _env(tmp_path)
    sweep = ["-m", "repro", *command, "--jobs", "2"]
    first = _run(sweep, env, tmp_path)
    assert f"{simulated} simulated" in first.stdout
    out, names = _loaded(sweep, env, tmp_path)
    assert "cache hits (100.0%)" in out
    assert sorted(names.intersection(HEAVY)) == []


def test_public_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name) is not None, name
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert set(repro.__all__) <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.no_such_name


_FORK_PROBE = """
import json, os, sys

seen = []
os.register_at_fork(before=lambda: seen.append("repro.sim.batch" in sys.modules))

from repro.policies import StaticPaging
from repro.sim.coordinator import CoordinatorConfig
from repro.sim.parallel import SweepCell, SweepRunner
from repro.trace.workload import Pattern, StructureSpec, WorkloadSpec
from repro.units import MB, PAGE_2M, PAGE_64K

part = StructureSpec(
    "part", 8 * MB, 8 * MB, Pattern.PARTITIONED,
    group_pages=4, waves=2, lines_per_touch=4,
)
spec = WorkloadSpec(
    abbr="FRK", title="fork probe", structures=(part,),
    tb_count=64, mem_fraction=0.3,
)
cells = [SweepCell(spec, StaticPaging(size)) for size in (PAGE_64K, PAGE_2M)]
assert "repro.sim.batch" not in sys.modules
if sys.argv[1] == "pool":
    runner = SweepRunner(jobs=2, use_cache=False)
else:
    runner = SweepRunner(jobs=1, coordinator=CoordinatorConfig(runners=2))
results = runner.run_cells(cells)
assert all(r is not None for r in results)
print(json.dumps(seen))
"""


@pytest.mark.parametrize("mode", ["pool", "coordinator"])
def test_workers_fork_with_the_engine_loaded(mode, tmp_path):
    """Each mode runs in its own interpreter, and the probe first checks
    that nothing has loaded the replay yet, so only the pre-fork import
    can make the hook see it."""
    proc = _run(["-c", _FORK_PROBE, mode], _env(tmp_path), tmp_path)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(seen) >= 2
    assert all(seen), seen
