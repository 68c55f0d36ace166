"""End-to-end host-time benchmark of the ``repro`` command line.

Run from the repository root (the program is imported from ``src/``)::

    python3 hostbench/bench.py                          # every workload, traced too
    python3 hostbench/bench.py --workload report-cold --seed 7 --seconds 25 --trace 0
    python3 hostbench/bench.py --smoke                  # one pass of each, ~30 s
    python3 hostbench/bench.py --write-reference        # after a model change only

Each workload is a closed loop with one client: passes run one after
another, and no pass runs more than ``JOBS`` simulator processes.  A pass
runs real CLI commands in a hermetic environment (no inherited
``REPRO_*`` variables; its own cache, telemetry and temp directories,
and cwd) and is timed from outside with ``os.wait4``.  Every pass is
checked against the reference digests in ``reference.json`` (or, for a
seed with no stored reference, against one untimed serial run).

``--trace 0`` reports the end-to-end metrics of the untraced passes;
``--trace 1`` then also runs traced passes (``spans.py``), each right
after an untraced one, and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out`` also writes the
full ``repro/bench/v2`` record.  See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_SCRIPT = HERE / "spans.py"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from spans import load_spans, self_times  # noqa: E402

SCHEMA = "repro/bench/v2"
#: Simulator processes per pass (``--jobs`` / ``--runners``).
JOBS = 2
#: ``repro report``/``experiment`` have no seed flag; their cells use seed 7.
REPORT_SEED = 7
#: Table-2 workloads the coordinator sweeps: irregular graph traces and
#: GEMM-style layers, none of which the quick report covers.
SWEEP_WORKLOADS = ("BFS", "SSSP", "ViT", "RES50")
SMOKE_SWEEP_WORKLOADS = ("BFS", "ViT")
#: Seeds ``--write-reference`` stores for the coordinator sweep.
REFERENCE_SWEEP_SEEDS = (7, 11)
SETUP_RUNS = 5
DEFAULT_SECONDS = 25
#: Share of ``--seconds`` spent on (untraced, traced) pass pairs under
#: ``--trace 1``.
TRACED_SHARE = 0.5
COMMAND_TIMEOUT_S = 150.0
OVERHEAD_GATE = 0.05
OTHER_GATE = 0.10


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the CLI arguments less ``--jobs``; unused by the sweep workload,
    #: which runs one seeded ``repro sweep`` per ``SWEEP_WORKLOADS`` entry
    argv: Tuple[str, ...] = ()
    sweep: bool = False
    telemetry: bool = False
    #: fill one cache per run (untimed) that every pass then reads
    prefill: bool = False

    def seed_used(self, seed: int) -> int:
        return seed if self.sweep else REPORT_SEED

    def commands(
        self, seed: int, sweep_names: Sequence[str], pass_dir: Path
    ) -> List[List[str]]:
        if self.sweep:
            return [
                ["sweep", name, "--seed", str(seed),
                 "--runners", str(JOBS), "--trace-store"]
                for name in sweep_names
            ]
        argv = [*self.argv, "--jobs", str(JOBS)]
        if self.telemetry:
            argv += ["--telemetry", "--telemetry-dir", str(pass_dir / "telemetry")]
        return [argv]

    def reference_commands(
        self, seed: int, sweep_names: Sequence[str]
    ) -> List[List[str]]:
        """The serial commands whose output every pass must reproduce."""
        if self.sweep:
            return [
                ["sweep", name, "--seed", str(seed), "--jobs", "1"]
                for name in sweep_names
            ]
        return [[*self.argv, "--jobs", "1"]]


WORKLOADS = (
    Workload(
        "report-cold",
        "the headline quick report on a fresh cache; replay dominates",
        argv=("--quick",),
    ),
    Workload(
        "report-warm",
        "the quick report on a filled cache: import, fingerprints and "
        "cache reads only",
        argv=("--quick",),
        prefill=True,
    ),
    Workload(
        "experiment-telemetry",
        "one figure with telemetry on: every cell on the staged pipeline, "
        "no cache reads",
        argv=("experiment", "fig22", "--quick"),
        telemetry=True,
    ),
    Workload(
        "sweep-coordinator",
        "seeded page-size sweeps through the lease coordinator and "
        "trace store",
        sweep=True,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}

#: (name, unit, better) — mirrored in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PER_LAYER = (
    ("python.startup_s", "s", "lower"),
    ("import.repro_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("parallel.run_cells_self_s", "s", "lower"),
    ("parallel.worker_busy_s", "s", "lower"),
    ("parallel.pool_idle_frac", "frac", "lower"),
    ("parallel.fingerprint_s", "s", "lower"),
    ("parallel.fingerprint_n", "count", "lower"),
    ("parallel.cache_get_s", "s", "lower"),
    ("parallel.cache_get_n", "count", "lower"),
    ("parallel.cache_put_s", "s", "lower"),
    ("parallel.cache_put_n", "count", "lower"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.cells", "count", "lower"),
    ("parallel.simulated", "count", "lower"),
    ("parallel.deduped", "count", "higher"),
    ("durability.atomic_write_s", "s", "lower"),
    ("durability.atomic_write_n", "count", "lower"),
    ("durability.parse_entry_s", "s", "lower"),
    ("durability.parse_entry_n", "count", "lower"),
    ("trace.bind_s", "s", "lower"),
    ("trace.build_s", "s", "lower"),
    ("trace.build_n", "count", "lower"),
    ("trace.build_mb", "MB", "lower"),
    ("trace.store_ensure_s", "s", "lower"),
    ("trace.store_ensure_n", "count", "lower"),
    ("trace.store_attach_s", "s", "lower"),
    ("trace.store_attach_n", "count", "lower"),
    ("trace.bytes_shared_mb", "MB", "higher"),
    ("machine.init_s", "s", "lower"),
    ("machine.init_n", "count", "lower"),
    ("policy.validate_s", "s", "lower"),
    ("policy.attach_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.accesses", "count", "lower"),
    ("engine.warp_insts", "count", "lower"),
    ("batch.run_s", "s", "lower"),
    ("batch.run_n", "count", "lower"),
    ("batch.ns_per_access", "ns", "lower"),
    ("batch.cell_p50_ms", "ms", "lower"),
    ("batch.cell_p80_ms", "ms", "lower"),
    ("batch.fast_path_fraction", "frac", "higher"),
    ("batch.fault_batch_fraction", "frac", "higher"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.run_n", "count", "lower"),
    ("pipeline.ns_per_access", "ns", "lower"),
    ("pipeline.cell_p50_ms", "ms", "lower"),
    ("pipeline.cell_p80_ms", "ms", "lower"),
    ("telemetry.dumps_n", "count", "lower"),
    ("coordinator.run_self_s", "s", "lower"),
    ("coordinator.runners_n", "count", "lower"),
    ("coordinator.leases_stolen", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("journal.append_n", "count", "lower"),
    ("journal.records_n", "count", "lower"),
    ("python.exit_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("other_frac", "frac", "lower"),
)


class BenchError(Exception):
    """A reference run failed, so no pass can be checked."""


# --- running commands ---------------------------------------------------


@dataclasses.dataclass
class CommandRun:
    argv: List[str]
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    #: ``perf_counter_ns`` at spawn and after reaping (CLOCK_MONOTONIC,
    #: the clock the traced child stamps its spans with)
    start_ns: int
    end_ns: int


def hermetic_env(pass_dir: Path, cache_dir: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` variable, with
    the cache, telemetry and temp directories inside ``pass_dir``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(SRC),
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_TELEMETRY_DIR=str(pass_dir / "telemetry"),
        TMPDIR=str(pass_dir / "tmp"),
    )
    return env


def run_command(argv: List[str], cwd: Path, env: Dict[str, str]) -> CommandRun:
    """Run ``argv`` to completion; CPU and max RSS cover its whole
    process tree (``wait4`` folds in every descendant it reaped)."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=out, stderr=err,
            start_new_session=True,
        )
        # A hung pass must not hang the benchmark: kill its process group.
        timer = threading.Timer(
            COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        end_ns = time.perf_counter_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(
        argv=argv,
        returncode=proc.returncode,
        wall_s=(end_ns - start_ns) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        start_ns=start_ns,
        end_ns=end_ns,
    )


@dataclasses.dataclass
class Pass:
    commands: List[CommandRun]
    problems: List[str]
    counts: Dict[str, float]
    layers: Optional[Dict[str, float]] = None

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.peak_rss_mb for c in self.commands)

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "ok": not self.problems,
            "problems": self.problems,
        }


def run_commands(
    commands: List[List[str]], pass_dir: Path, cache_dir: Path,
    traced: bool = False,
) -> List[CommandRun]:
    """Run the commands of one pass in order, sharing ``cache_dir``."""
    env = hermetic_env(pass_dir, cache_dir)
    (pass_dir / "tmp").mkdir(parents=True, exist_ok=True)
    runs = []
    for i, argv in enumerate(commands):
        cwd = pass_dir / f"cmd{i}"
        cwd.mkdir()
        if traced:
            program = [sys.executable, str(SPANS_SCRIPT), str(cwd / "spans")]
        else:
            program = [sys.executable, "-m", "repro"]
        run = run_command(program + argv, cwd, env)
        run.argv = argv
        runs.append(run)
    return runs


# --- correctness --------------------------------------------------------

_SWEEP_COUNTS = {
    "cells": r"(\d+) cells",
    "simulated": r"(\d+) simulated",
    "cache_hits": r"(\d+) cache hits",
    "deduped": r"(\d+) deduped",
    "leases_stolen": r"(\d+) leases stolen",
    "shared_mb": r"([\d.]+) MB shared",
}


def parse_sweep_lines(stdout: str) -> Dict[str, float]:
    """Sum the counters of every ``[sweep]`` summary line."""
    totals = dict.fromkeys(_SWEEP_COUNTS, 0.0)
    for line in stdout.splitlines():
        if not line.startswith("[sweep] ") or line.startswith("[sweep] id:"):
            continue
        for key, pattern in _SWEEP_COUNTS.items():
            match = re.search(pattern, line)
            if match:
                totals[key] += float(match.group(1))
    return totals


def body_digest(stdout: str) -> str:
    """sha256 of the output minus the ``[sweep]`` lines (timings, ids)."""
    body = "".join(
        line for line in stdout.splitlines(keepends=True)
        if not line.startswith("[sweep]")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def cache_digest(cache_dir: Path) -> Tuple[str, int]:
    """sha256 of the sorted ``(fingerprint, to_dict())`` cache entries,
    and how many there are."""
    from repro.sim.parallel import ResultCache

    pairs = [[key, result.to_dict()] for key, result in ResultCache(cache_dir).iter_results()]
    text = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), len(pairs)


def check_pass(
    workload: Workload, runs: List[CommandRun], expected: Dict[str, str],
    pass_dir: Path, cache_dir: Path,
) -> Pass:
    problems = [
        f"`repro {' '.join(r.argv)}` exited {r.returncode}: "
        f"{r.stderr.strip().splitlines()[-1:]}"
        for r in runs if r.returncode != 0
    ]
    stdout = "".join(r.stdout for r in runs)
    result = Pass(runs, problems, parse_sweep_lines(stdout))
    if body_digest(stdout) != expected["body"]:
        problems.append("output differs from the reference")
    digest, entries = cache_digest(cache_dir)
    if digest != expected["cache"]:
        problems.append("result cache differs from the reference")
    if workload.telemetry:
        # A cell simulated twice (two experiments share it) rewrites its
        # one dump, so expect one dump per distinct cell: per cache entry.
        dumps = len(list((pass_dir / "telemetry").glob("*.json")))
        result.counts["dumps"] = dumps
        if dumps != entries:
            problems.append(f"{dumps} telemetry dumps for {entries} distinct cells")
    return result


def reference_key(commands: List[List[str]]) -> str:
    return " | ".join("repro " + " ".join(argv) for argv in commands)


def load_reference() -> Dict[str, Dict[str, str]]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def compute_reference(commands: List[List[str]], work: Path) -> Dict[str, str]:
    """Digests of one untimed serial run against a fresh cache."""
    pass_dir = Path(tempfile.mkdtemp(prefix="ref-", dir=work))
    try:
        runs = run_commands(commands, pass_dir, pass_dir / "cache")
        failed = [r for r in runs if r.returncode != 0]
        if failed:
            raise BenchError(
                f"reference run `repro {' '.join(failed[0].argv)}` exited "
                f"{failed[0].returncode}:\n{failed[0].stderr}"
            )
        return {
            "body": body_digest("".join(r.stdout for r in runs)),
            "cache": cache_digest(pass_dir / "cache")[0],
        }
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def write_reference(work: Path) -> Dict[str, Dict[str, str]]:
    by_key = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SWEEP_SEEDS if workload.sweep else (REPORT_SEED,):
            commands = workload.reference_commands(seed, SWEEP_WORKLOADS)
            key = reference_key(commands)
            if key not in by_key:
                by_key[key] = compute_reference(commands, work)
    REFERENCE.write_text(json.dumps(by_key, indent=2, sort_keys=True) + "\n")
    return by_key


def tree_snapshot(skip: Sequence[Path]) -> Dict[str, tuple]:
    """``{path: (size, mtime)}`` of the checkout, so a pass that writes
    into it (e.g. the default ``./telemetry``) is caught."""
    skip = {p.resolve() for p in skip}
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        base = Path(dirpath)
        dirnames[:] = [
            d for d in dirnames
            if d not in ("__pycache__", ".git") and (base / d).resolve() not in skip
        ]
        for name in filenames:
            path = base / name
            if path.resolve() in skip:
                continue
            try:
                st = path.lstat()
            except OSError:
                continue
            snapshot[str(path.relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return snapshot


# --- per-layer metrics --------------------------------------------------


def _percentile(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def layer_metrics(
    commands: List[Tuple[List[dict], int, int]], counts: Dict[str, float],
    records_n: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``commands`` holds, per command of the pass, its spans and the
    ``perf_counter_ns`` at which it was spawned and reaped.  Every ``_s``
    metric is self time (a span minus its same-process child spans), so
    the layers partition the time they cover.  Interpreter start-up and
    exit are the gaps between spawn and the first top-level span, and
    between the last one and reaping; ``other_frac`` is what remains.
    """
    self_ns: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    busy_ns = run_cells_ns = startup_ns = exit_ns = wall_ns = other_ns = 0
    replay = {name: {"ns": 0, "accesses": 0, "cells_ms": []}
              for name in ("batch.run", "pipeline.run")}
    accesses = warp_insts = build_bytes = 0
    weighted = {"fast_path_fraction": [0.0, 0], "fault_batch_fraction": [0.0, 0]}
    for spans, start_ns, end_ns in commands:
        selfs = self_times(spans)
        by_id = {s["id"]: s for s in spans}
        main_pids = {s["pid"] for s in spans if s["name"] == "main"}
        roots = [s for s in spans if s["pid"] in main_pids and s["parent"] is None]
        wall_ns += end_ns - start_ns
        if roots:
            first, last = min(s["t0"] for s in roots), max(s["t1"] for s in roots)
            startup_ns += first - start_ns
            exit_ns += end_ns - last
            other_ns += last - first - sum(s["t1"] - s["t0"] for s in roots)
        for span in spans:
            name, dur = span["name"], span["t1"] - span["t0"]
            self_ns[name] += selfs[span["id"]]
            calls[name] += 1
            attrs = span.get("a", {})
            if span["pid"] in main_pids:
                if name == "parallel.run_cells":
                    run_cells_ns += dur
            elif name == "parallel.cell":
                busy_ns += dur
            if name == "trace.build":
                build_bytes += attrs.get("bytes", 0)
            if name == "engine.run" and attrs:
                accesses += attrs["accesses"]
                warp_insts += attrs["warp_insts"]
                for key, acc in weighted.items():
                    if attrs.get(key) is not None:
                        acc[0] += attrs[key] * attrs["accesses"]
                        acc[1] += attrs["accesses"]
            if name in replay:
                parent = by_id.get(span["parent"], {})
                replay[name]["ns"] += dur
                replay[name]["accesses"] += parent.get("a", {}).get("accesses", 0)
                replay[name]["cells_ms"].append(dur / 1e6)

    def secs(*names: str) -> float:
        return sum(self_ns[n] for n in names) / 1e9

    metrics = {
        "python.startup_s": startup_ns / 1e9,
        "python.exit_s": exit_ns / 1e9,
        "import.repro_s": secs("import"),
        "cli.self_s": secs("main"),
        "experiments.self_s": secs("experiments"),
        "parallel.run_cells_self_s": secs("parallel.run_cells"),
        "parallel.worker_busy_s": busy_ns / 1e9,
        "parallel.pool_idle_frac": (
            1.0 - busy_ns / (JOBS * run_cells_ns) if run_cells_ns else 1.0
        ),
    }
    for span in (
        "parallel.fingerprint", "parallel.cache_get", "parallel.cache_put",
        "durability.atomic_write", "durability.parse_entry", "trace.build",
        "trace.store_ensure", "trace.store_attach", "machine.init",
        "batch.run", "pipeline.run", "journal.append",
    ):
        metrics[f"{span}_s"] = secs(span)
        metrics[f"{span}_n"] = calls[span]
    metrics.update({
        "parallel.cache_hits": counts["cache_hits"],
        "parallel.cells": counts["cells"],
        "parallel.simulated": counts["simulated"],
        "parallel.deduped": counts["deduped"],
        "trace.bind_s": secs("trace.bind"),
        "trace.build_mb": build_bytes / 1e6,
        "trace.bytes_shared_mb": counts["shared_mb"],
        "policy.validate_s": secs("policy.validate"),
        "policy.attach_s": secs("policy.attach"),
        "engine.self_s": secs("engine.run"),
        "engine.accesses": accesses,
        "engine.warp_insts": warp_insts,
        "telemetry.dumps_n": counts.get("dumps", 0),
        "coordinator.run_self_s": secs("coordinator.run", "coordinator.spawn"),
        "coordinator.runners_n": calls["coordinator.spawn"],
        "coordinator.leases_stolen": counts["leases_stolen"],
        "journal.records_n": records_n,
        "other_frac": other_ns / wall_ns if wall_ns else 0.0,
    })
    for key, (total, weight) in weighted.items():
        metrics[f"batch.{key}"] = total / weight if weight else 0.0
    for name, acc in replay.items():
        layer = name.split(".")[0]
        metrics[f"{layer}.ns_per_access"] = (
            acc["ns"] / acc["accesses"] if acc["accesses"] else 0.0
        )
        metrics[f"{layer}.cell_p50_ms"] = _percentile(acc["cells_ms"], 0.5)
        metrics[f"{layer}.cell_p80_ms"] = _percentile(acc["cells_ms"], 0.8)
    return metrics


def journal_records(cache_dir: Path) -> int:
    from repro.sim.journal import Journal

    return sum(
        len(Journal(path).replay())
        for path in sorted((cache_dir / "sweeps").glob("*/journal.bin"))
    )


# --- one workload -------------------------------------------------------


def _stats(
    values: List[float], unit: str, pick: Callable[[List[float]], float] = statistics.median
) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": pick(values), "unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def closed_loop(budget_s: float, run_once: Callable[[], Pass]) -> List[Pass]:
    """Call ``run_once`` back to back while the next call is expected to
    end within ``budget_s``; at least once."""
    passes: List[Pass] = []
    durations: List[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_once())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > budget_s:
            return passes


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool,
    smoke: bool, work: Path,
) -> dict:
    sweep_names = SMOKE_SWEEP_WORKLOADS if smoke else SWEEP_WORKLOADS
    used_seed = workload.seed_used(seed)
    reference_commands = workload.reference_commands(used_seed, sweep_names)
    key = reference_key(reference_commands)
    expected = load_reference().get(key) or compute_reference(reference_commands, work)
    checked: List[Pass] = []
    shared_cache = work / f"{workload.name}-cache"

    def one_pass(traced: bool = False) -> Pass:
        pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work))
        cache_dir = shared_cache if workload.prefill else pass_dir / "cache"
        try:
            runs = run_commands(
                workload.commands(used_seed, sweep_names, pass_dir),
                pass_dir, cache_dir, traced,
            )
            result = check_pass(workload, runs, expected, pass_dir, cache_dir)
            if traced:
                result.layers = layer_metrics(
                    [
                        (load_spans(pass_dir / f"cmd{i}" / "spans"), r.start_ns, r.end_ns)
                        for i, r in enumerate(runs)
                    ],
                    result.counts, journal_records(cache_dir),
                )
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        checked.append(result)
        return result

    setup_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=work))
    setup = [
        run.wall_s
        for run in run_commands([["list"]] * SETUP_RUNS, setup_dir, setup_dir / "cache")
    ]
    shutil.rmtree(setup_dir, ignore_errors=True)
    if workload.prefill:
        one_pass()
    timed = closed_loop(seconds, one_pass)

    def traced_pair() -> Pass:
        # Each traced pass follows an untraced one, so the pair shares the
        # host's state and their ratio is the tracing overhead.
        plain, result = one_pass(), one_pass(traced=True)
        result.layers["trace.overhead_frac"] = result.wall_s / plain.wall_s - 1.0
        return result

    traced = closed_loop(seconds * TRACED_SHARE, traced_pair) if trace else []
    shutil.rmtree(shared_cache, ignore_errors=True)

    # The reported value is the run's fastest sample: other tenants of a
    # shared host only ever add time, in bursts of a second to a minute.
    end_to_end = {
        "wall_s": _stats([p.wall_s for p in timed], "s", min),
        "cpu_s": _stats([p.cpu_s for p in timed], "s", min),
        "peak_rss_mb": _stats([p.peak_rss_mb for p in timed], "MB", min),
        "setup_s": _stats(setup, "s", min),
    }
    per_layer = {}
    if traced:
        for name, unit, _ in PER_LAYER:
            per_layer[name] = _stats([p.layers[name] for p in traced], unit)
    failed = sum(1 for p in checked if p.problems)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": used_seed,
        "commands": workload.commands(used_seed, sweep_names, Path("<pass>")),
        "reference": key,
        "attempted": len(checked),
        "failed": failed,
        "error_rate": failed / len(checked),
        "problems": sorted({msg for p in checked for msg in p.problems}),
        "setup_samples_s": setup,
        "passes": [p.summary() for p in timed],
        "traced_passes": [p.summary() for p in traced],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# --- reporting ----------------------------------------------------------


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
    }


def print_workload(result: dict) -> None:
    print(
        f"{result['workload']}  seed {result['seed']}  "
        f"{result['attempted']} passes checked, {result['failed']} failed "
        f"(error_rate {result['error_rate']:.3f})"
    )
    print(f"  {'metric':28s} {'value':>14s} {'unit':6s} median, q1, q3, n")
    for section in ("end_to_end", "per_layer"):
        for name, stat in result[section].items():
            print(
                f"  {name:28s} {stat['value']:14.6g} {stat['unit']:6s} "
                f"{stat['median']:.6g}, {stat['q1']:.6g}, {stat['q3']:.6g}, {stat['n']}"
            )
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def warn_overhead(result: dict) -> None:
    layers = result["per_layer"]
    for name, gate in (("trace.overhead_frac", OVERHEAD_GATE), ("other_frac", OTHER_GATE)):
        if name in layers and layers[name]["value"] > gate:
            print(
                f"warning: {result['workload']} {name} = "
                f"{layers[name]['value']:.3f} exceeds {gate:.2f}",
                file=sys.stderr,
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=REPORT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run traced passes and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per workload, two-workload sweep")
    parser.add_argument("--out", type=Path, default=None,
                        help=f"write the {SCHEMA} record here")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json (model changes only)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        args.seconds = 0.0
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=WORK_ROOT))
    skip = [WORK_ROOT] + ([args.out] if args.out else [])
    try:
        if args.write_reference:
            for key, digests in write_reference(work).items():
                print(f"{key}\n  {digests}")
            return 0
        before = tree_snapshot(skip)
        load_before = os.getloadavg()
        names = list(BY_NAME) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = run_workload(
                BY_NAME[name], args.seed, args.seconds, bool(args.trace),
                args.smoke, work,
            )
            print_workload(result)
            warn_overhead(result)
            results.append(result)
        changed = sorted(
            set(before.items()).symmetric_difference(tree_snapshot(skip).items())
        )
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if changed:
        print(f"FAILED: passes changed the checkout: {sorted({p for p, _ in changed})}")

    env = environment()
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())
    if args.out:
        record = {
            "schema": SCHEMA,
            "argv": sys.argv[1:] if argv is None else list(argv),
            "environment": env,
            "workloads": {r["workload"]: r for r in results},
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name, stat in result[section].items():
            metrics[prefix + name] = {"value": stat["value"], "unit": stat["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not changed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
