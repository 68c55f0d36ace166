#!/usr/bin/env python
"""The perf harness: every CI perf gate, one statistic, one record.

Suites, named on the command line (default: every gated suite):

``engine``
    Telemetry-off replay of STE/S-64KB, BLK/CLAP and GPT3/Ideal_C-NUMA
    on each engine, normalized by a calibration loop; each engine must
    stay within 1.1x of its recorded baseline.
``fault-batch``
    The six-cell fault-heavy sweep (FHVY, first-touch-dominated); the
    batched engine must be >= 2.0x faster than the staged engine, cell
    by cell, and bit-identical to it.
``arena``
    4 spawned workers hold one trace at once; their summed Pss
    (resident memory, shared pages split among the processes that map
    them, read from ``/proc/self/smaps``) must be >= 2.0x lower with the
    trace store than with private traces.  Skipped, with no gate, where
    there is no ``/proc/self/smaps``.
``surrogate``
    The 506-cell design-space grid at 4 jobs, swept exactly and through
    the surrogate; >= 5.0x fewer exact simulations, no decision that
    differs from the exact grid's and no exactly simulated cell that
    differs from it.
``cells``
    The per-cell staged/batched table the README cites.  No timing gate
    (CI does not run it), but every cell must replay bit-identically.

Statistic.  Every timed suite times a pair: the engine suite a sweep and
the calibration loop, the other two the staged and the batched replay.
One untimed warm-up runs the pair once (its results feed the identity
checks); then each of ``ROUNDS`` rounds runs the pair back to back, the
side that goes first alternating, and the figure is the median of the
per-round ratios, with q1 and q3 beside it.  Both sides of a ratio see
the same host load, and the median drops the rounds a burst of load
distorts.  Raw wall time does not transfer across machines; its ratio
to the calibration loop, a fixed pure-Python workload shaped like the
hot path (dict probes, integer arithmetic, calls), approximately does.

Record.  One schema (``SCHEMA``) for every suite: ``suites`` maps each
suite run to its measurements, its ``host`` and its ``gates`` (name,
value, bound, which side is better, passed).  ``--json PATH`` writes
this run's record; ``--record`` merges this run's suites into the
committed record, ``benchmarks/perf_record.json``, whose ``engine``
entry holds the baselines the engine gate reads.

Usage::

    python benchmarks/perf.py                        # every gated suite
    python benchmarks/perf.py arena --json arena.json
    python benchmarks/perf.py engine --record        # rewrite the baselines
    python benchmarks/perf.py cells --record         # refresh the table

Exit status: 0 when every gate holds, 1 when one fails, 2 when the
committed record has no engine baseline for these cells.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from repro.arch.address import InterleavePolicy  # noqa: E402
from repro.core.clap import ClapPolicy  # noqa: E402
from repro.policies.sa_static import SaStaticPolicy  # noqa: E402
from repro.sim.engine import ENGINES, run_simulation  # noqa: E402
from repro.sim.parallel import SweepCell, SweepRunner  # noqa: E402
from repro.sim.results import SimResult  # noqa: E402
from repro.sim.runner import run_workload  # noqa: E402
from repro.sim.timing import TimingParams  # noqa: E402
from repro.surrogate import PredictedResult, SurrogateConfig  # noqa: E402
from repro.trace.store import TraceStore, trace_fingerprint  # noqa: E402
from repro.trace.workload import (  # noqa: E402
    Pattern,
    StructureSpec,
    Workload,
    WorkloadSpec,
)
from repro.units import MB, PAGE_64K, SWEEP_PAGE_SIZES  # noqa: E402

SCHEMA = "repro/perf/v1"
RECORD_PATH = REPO / "benchmarks" / "perf_record.json"

#: Timed rounds per pair, after one untimed warm-up.
ROUNDS = 15

# ----------------------------------------------------------- statistic


def _quartiles(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _paired(first, second):
    """Time ``first`` against ``second`` by the module's one statistic.

    Returns the warm-up's two results and a dict of quartiles: ``ratio``
    (of ``first``'s time to ``second``'s, per round), ``first_s`` and
    ``second_s``.
    """
    warm = (first(), second())
    seconds = ([], [])
    for index in range(ROUNDS):
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            start = time.perf_counter()
            (first, second)[side]()
            seconds[side].append(time.perf_counter() - start)
    ratios = [a / b for a, b in zip(*seconds)]
    return warm, {
        "ratio": _quartiles(ratios),
        "first_s": _quartiles(seconds[0]),
        "second_s": _quartiles(seconds[1]),
    }


def _spread(q: dict, scale: float = 1.0, digits: int = 2) -> str:
    return (
        f"{q['median'] * scale:.{digits}f} "
        f"({q['q1'] * scale:.{digits}f}-{q['q3'] * scale:.{digits}f})"
    )


def _gate(name: str, value: float, bound: float, better: str) -> dict:
    passed = value >= bound if better == "higher" else value <= bound
    return {
        "name": name, "value": value, "bound": bound,
        "better": better, "passed": passed,
    }


# -------------------------------------------------------------- engine

#: One cheap cell, one fault-heavy cell, one migration-policy cell: the
#: three hot-path shapes the pipeline has.
ENGINE_CELLS = (("STE", "S-64KB"), ("BLK", "CLAP"), ("GPT3", "Ideal_C-NUMA"))
ENGINE_BOUND = 1.1

#: Calibration loop size; ~0.1-0.2 s of pure Python on 2020s hardware.
CALIBRATION_OPS = 400_000


def _calibration() -> int:
    """The hot-path-shaped calibration loop the engine suite divides by."""
    table = {}
    counters = [0, 0, 0, 0]
    probe = table.get

    def touch(key, chiplet):
        row = probe(key)
        if row is None:
            row = [0, 0, 0, 0]
            table[key] = row
        row[chiplet] += 1
        return row[chiplet]

    acc = 0
    for i in range(CALIBRATION_OPS):
        vaddr = (i * 2654435761) & 0xFFFFFF
        chiplet = (vaddr >> 16) & 3
        acc += touch(vaddr & ~0xFFFF, chiplet)
        counters[chiplet] += acc & 1
    return acc


def _engine_sweep(engine: str) -> None:
    for workload, policy in ENGINE_CELLS:
        result = run_workload(workload, policy, engine=engine)
        assert result.telemetry is None, "the sweep runs telemetry-off"


def engine_suite(record: bool) -> dict:
    """With ``record``, this run's figures become the baselines."""
    entry = {"cells": [f"{w}/{p}" for w, p in ENGINE_CELLS], "gates": []}
    baselines = None
    if not record:
        committed = _committed()["suites"].get("engine", {})
        if committed.get("cells") != entry["cells"]:
            print(
                f"[perf] {RECORD_PATH.name} holds no engine baseline for "
                f"{', '.join(entry['cells'])}; re-record with --record",
                file=sys.stderr,
            )
            raise SystemExit(2)
        baselines = {e: committed[e]["normalized"]["median"] for e in ENGINES}
    for engine in ENGINES:
        _, timed = _paired(partial(_engine_sweep, engine), _calibration)
        normalized = timed["ratio"]["median"]
        baseline = normalized if baselines is None else baselines[engine]
        entry[engine] = {
            "normalized": timed["ratio"],
            "sweep_s": timed["first_s"],
            "calibration_s": timed["second_s"],
        }
        print(
            f"[perf] engine {engine}: sweep {_spread(timed['first_s'], digits=3)} s, "
            f"calibration {_spread(timed['second_s'], digits=3)} s, "
            f"normalized {_spread(timed['ratio'])}"
        )
        entry["gates"].append(_gate(
            f"{engine} normalized / baseline {baseline:.2f}",
            normalized / baseline, ENGINE_BOUND, "lower",
        ))
    return entry


# --------------------------------------------------------- fault-batch


def _fault_heavy_spec() -> WorkloadSpec:
    """First-touch-dominated workload for the fault-heavy sweep.

    One wave and few lines per touch keep the fault:access ratio high
    (nearly every granule page is reached through the fault path), and
    single-page groups defeat any accidental spatial batching — the
    regime the vectorized fault path targets.
    """
    return WorkloadSpec(
        abbr="FHVY",
        title="fault-heavy quick sweep",
        structures=(
            StructureSpec(
                "a", 96 * MB, 96 * MB, Pattern.PARTITIONED,
                group_pages=1, waves=1, lines_per_touch=6,
            ),
            StructureSpec(
                "b", 96 * MB, 96 * MB, Pattern.CONTIGUOUS,
                group_pages=1, waves=1, lines_per_touch=6,
            ),
        ),
        tb_count=64,
        mem_fraction=0.9,
    )


def fault_batch_suite() -> dict:
    """Six fault-batching cells on one trace: three policies that opt
    into the vectorized fault path, under both interleave modes."""
    spec = _fault_heavy_spec()
    cells = [
        SweepCell(spec, policy, interleave=interleave)
        for policy in ("S-64KB", "Ideal", "MGvm")
        for interleave in (InterleavePolicy.NUMA_AWARE, InterleavePolicy.NAIVE)
    ]

    def sweep(engine):
        return [
            run_simulation(
                cell.workload, cell.policy, cell.config,
                interleave=cell.interleave, seed=cell.seed, engine=engine,
            )
            for cell in cells
        ]

    (staged, batched), timed = _paired(partial(sweep, "staged"), partial(sweep, "batched"))
    divergent = sum(s.to_dict() != b.to_dict() for s, b in zip(staged, batched))
    fractions = [r.fault_batch_fraction for r in batched]
    print(
        f"[perf] fault-batch: {len(cells)} cells, staged "
        f"{_spread(timed['first_s'], 1e3, 0)} ms, batched "
        f"{_spread(timed['second_s'], 1e3, 0)} ms, speedup "
        f"{_spread(timed['ratio'])}, fault-batch fractions {fractions}"
    )
    return {
        "cells": [
            f"{cell.workload.abbr}/{cell.policy.name}+{cell.interleave.name}"
            for cell in cells
        ],
        "speedup": timed["ratio"],
        "staged_s": timed["first_s"],
        "batched_s": timed["second_s"],
        "fault_batch_fractions": fractions,
        "gates": [
            _gate("batched speedup over staged", timed["ratio"]["median"], 2.0, "higher"),
            _gate("cells where batched differs from staged", divergent, 0, "lower"),
        ],
    }


# --------------------------------------------------------------- arena

ARENA_JOBS = 4


def _residency_spec() -> WorkloadSpec:
    """A trace big enough that page-granular Pss accounting is exact to
    well under 1%: many waves over two structures yield an arena of
    several MB (11 bytes per access across the three columns)."""
    return WorkloadSpec(
        abbr="ARNA",
        title="trace-arena residency probe",
        structures=(
            StructureSpec(
                "a", 64 * MB, 64 * MB, Pattern.PARTITIONED,
                group_pages=2, waves=16, lines_per_touch=16,
            ),
            StructureSpec(
                "b", 32 * MB, 32 * MB, Pattern.CONTIGUOUS,
                waves=16, lines_per_touch=16,
            ),
        ),
        tb_count=64,
        mem_fraction=0.9,
    )


def _mapping_pss(addr: int, nbytes: int) -> dict:
    """smaps counters (bytes) summed over the mappings covering the arena.

    ``/proc/self/smaps`` reports per-VMA Pss (a page shared by N
    processes counts 1/N here), which is exactly the "who pays for this
    trace" question.
    """
    totals = {"Pss": 0, "Rss": 0, "Private_Dirty": 0}
    in_range = False
    with open("/proc/self/smaps") as handle:
        for line in handle:
            head = line.split()[0]
            if "-" in head.rstrip(":"):
                # VMA header line: "start-end perms offset dev inode ..."
                try:
                    start_s, end_s = head.split("-", 1)
                    start, end = int(start_s, 16), int(end_s, 16)
                except ValueError:
                    continue
                in_range = start < addr + nbytes and addr < end
                continue
            key = head.rstrip(":")
            if in_range and key in totals:
                totals[key] += int(line.split()[1]) * 1024
    return totals


def _residency_worker(mode, root, spec, chiplets, seed, barrier, queue):
    """Hold the trace, touch every page, report the arena mapping's Pss.

    The first barrier makes every worker fault the whole trace in before
    anyone reads smaps (Pss splits only among mappings that exist now);
    the second keeps each mapping alive until everyone has measured.
    """
    trace = None
    if mode == "store":
        # The parent materialized the archive; a worker only attaches.
        trace = TraceStore(root).attach(trace_fingerprint(spec, chiplets, seed))
    attached = trace is not None
    if trace is None:
        trace = Workload(spec, chiplets, seed=seed).build_trace(seed)
    checksum = (
        int(trace.vaddrs.sum())
        ^ int(trace.chiplets.astype("int64").sum())
        ^ int(trace.alloc_ids.astype("int64").sum())
    )
    barrier.wait()
    counters = _mapping_pss(trace.arena.__array_interface__["data"][0], trace.nbytes)
    barrier.wait()
    queue.put({
        "attached": attached, "nbytes": int(trace.nbytes),
        "checksum": checksum, **counters,
    })


def arena_suite() -> dict:
    if not os.path.exists("/proc/self/smaps"):
        print("[perf] arena: skipped, no /proc/self/smaps on this platform")
        return {"skipped": "no /proc/self/smaps", "gates": []}
    spec, chiplets, seed = _residency_spec(), 4, 7
    ctx = multiprocessing.get_context("spawn")
    workers = {}
    with tempfile.TemporaryDirectory(prefix="arena-store-") as root:
        # Materialize once up front so workers in store mode only attach.
        fingerprint, nbytes, _ = TraceStore(root).ensure(spec, chiplets, seed)
        for mode in ("private", "store"):
            barrier, queue = ctx.Barrier(ARENA_JOBS), ctx.Queue()
            procs = [
                ctx.Process(
                    target=_residency_worker,
                    args=(mode, root, spec, chiplets, seed, barrier, queue),
                )
                for _ in range(ARENA_JOBS)
            ]
            for proc in procs:
                proc.start()
            reports = [queue.get(timeout=600) for _ in procs]
            for proc in procs:
                proc.join(timeout=600)
            assert {(r["nbytes"], r["checksum"]) for r in reports} == {
                (nbytes, reports[0]["checksum"])
            }, f"{mode}: workers disagreed on the trace"
            workers[mode] = reports

    total = {mode: sum(r["Pss"] for r in reports) for mode, reports in workers.items()}
    fell_back = sum(not r["attached"] for r in workers["store"])
    reduction = total["private"] / max(1, total["store"])
    print(f"[perf] arena: {nbytes / 1e6:.1f} MB trace, {ARENA_JOBS} workers")
    for mode, reports in workers.items():
        dirty = sum(r["Private_Dirty"] for r in reports)
        print(
            f"[perf]   {mode:8s} summed Pss {total[mode] / 1e6:5.1f} MB, "
            f"{total[mode] / ARENA_JOBS / 1e6:4.1f} MB per worker, "
            f"private dirty {dirty / 1e6:5.1f} MB"
        )
    return {
        "jobs": ARENA_JOBS,
        "arena_nbytes": nbytes,
        "fingerprint": fingerprint,
        "per_worker": {
            mode: [{k: r[k] for k in ("Pss", "Rss", "Private_Dirty")} for r in reports]
            for mode, reports in workers.items()
        },
        "total_pss": total,
        "reduction": reduction,
        "gates": [
            _gate("summed Pss reduction with the store", reduction, 2.0, "higher"),
            _gate("store workers that fell back to a private trace", fell_back, 0, "lower"),
        ],
    }


# ----------------------------------------------------------- surrogate

SURROGATE_JOBS = 4

#: Exact-cell budget as a fraction of the grid (the 20% target).
BUDGET_FRACTION = 0.2

#: Remote bandwidth serialization, amplified 4x over the calibrated
#: default so page-size placement differences dominate the timing —
#: the regime the paper's DSE question actually lives in (misplaced
#: large pages overwhelming the ring) and a decision surface with
#: margins the fidelity gate can meaningfully check.
TIMING = TimingParams(bandwidth_cycles_per_remote=24.0)


def _policies():
    """The 23-policy axis of each workload group.

    Beyond the paper's page-size sweep and the adaptive schemes, the
    grid covers the SA-static family and CLAP's Section 4 ablation
    knobs — a realistic design-space sweep has parameterized policies,
    and they give the surrogate prunable volume to amortize its exact
    budget over.
    """
    policies = [f"S-{size // 1024}KB" for size in SWEEP_PAGE_SIZES]
    policies += [
        SaStaticPolicy(size)
        for size in SWEEP_PAGE_SIZES
        if size >= PAGE_64K  # SA-static supports 64KB..2MB
    ]
    policies += [
        ClapPolicy(),
        ClapPolicy(thres=0.5),
        ClapPolicy(use_remote_tracker=False),
        ClapPolicy(use_coalescing=False),
    ]
    policies += [
        "MGVM",
        "IDEAL_C-NUMA",
        "IDEAL_C-NUMA+INTER",
        "GRIT",
        "BARRE",
        "IDEAL",
    ]
    return policies


def _variants(count: int = 22):
    """``count`` workload variants along a chiplet-locality ramp.

    The primary knob is the partitioned structure's locality
    granularity (``group_pages``: 128KB vs 256KB owner groups), the
    effect the paper's mapping question revolves around — the best
    static page tracks the group size.  Footprint, thread count and
    noise ramp underneath, so the family is what a real DSE sweep
    looks like: one dominant axis, uncorrelated secondary axes, and
    enough cross-variant structure for a corpus-trained model to
    exploit.

    Granularities are confined to the regime where the page-size
    decision is *well-posed*: at these footprints, owner groups of
    512KB and above make every page size up to the group size equally
    local — the top static sizes tie to four decimal places and the
    "best page size" degenerates to a coin flip no sampler (and no
    fidelity gate) can score meaningfully.  128KB/256KB groups give
    tent-shaped curves with 2-9% decision margins: real answers the
    gate can hold the surrogate to.
    """
    specs = []
    for v in range(count):
        group_pages = 2 if (v // 2) % 2 == 0 else 4  # 128KB / 256KB
        size_mb = 3 + (v % 4)  # 3..6 MB main structure
        noise = 0.04 * (v // 11)  # 0.00, 0.04
        tb_count = 224 + 32 * (v % 5)
        specs.append(
            WorkloadSpec(
                abbr=f"SUR{v:02d}",
                title=f"surrogate-bench variant {v}",
                structures=(
                    StructureSpec(
                        "main",
                        size_mb * MB,
                        size_mb * MB,
                        Pattern.PARTITIONED,
                        group_pages=group_pages,
                        noise=noise,
                        waves=2,
                        lines_per_touch=3,
                    ),
                    StructureSpec(
                        "shared",
                        2 * MB,
                        2 * MB,
                        Pattern.SHARED,
                        waves=2,
                        lines_per_touch=3,
                    ),
                ),
                tb_count=tb_count,
                mem_fraction=0.30,
            )
        )
    return specs


def _is_page_size_cell(cell) -> bool:
    """Cells of the page-size decision: the ``StaticPaging`` sweep."""
    return type(cell.policy).__name__ == "StaticPaging"


def _decisions(cells, results):
    """Per-workload picks: (winning policy, selected static page size).

    ``None`` results (cells the sweep never scored) lose every
    comparison, so a missing cell can only *break* fidelity, never
    fake it.
    """
    winner = {}
    best_static = {}
    for cell, result in zip(cells, results):
        if result is None:
            continue
        abbr = cell.workload.abbr
        if abbr not in winner or result.performance > winner[abbr][1]:
            winner[abbr] = (cell.policy.name, result.performance)
        if _is_page_size_cell(cell) and (
            abbr not in best_static
            or result.performance > best_static[abbr][1]
        ):
            best_static[abbr] = (cell.policy.page_size, result.performance)
    return {
        abbr: {
            "policy": winner[abbr][0],
            "page_size": best_static.get(abbr, (None,))[0],
        }
        for abbr in winner
    }


def _fidelity(cells, truth, swept):
    """Decision mismatches: surrogate picks scored on *ground truth*.

    A pick matches when its ground-truth performance equals the true
    winner's — so picking either side of an exact tie counts as a
    match (a tie has no wrong answer), while any pick that truly
    underperforms the winner, however slightly, is a mismatch.
    """
    truth_policy = {}  # abbr -> {policy name: truth perf}
    truth_size = {}  # abbr -> {page size: truth perf}
    for cell, result in zip(cells, truth):
        abbr = cell.workload.abbr
        truth_policy.setdefault(abbr, {})[cell.policy.name] = (
            result.performance
        )
        if _is_page_size_cell(cell):
            truth_size.setdefault(abbr, {})[cell.policy.page_size] = (
                result.performance
            )

    picks = _decisions(cells, swept)
    mismatches = {}
    for abbr in truth_policy:
        pick = picks.get(abbr)
        problems = {}
        best_policy_perf = max(truth_policy[abbr].values())
        best_size_perf = max(truth_size[abbr].values())
        if (
            pick is None
            or truth_policy[abbr].get(pick["policy"], -1.0)
            < best_policy_perf
        ):
            problems["policy"] = {
                "picked": pick and pick["policy"],
                "truth": max(
                    truth_policy[abbr], key=truth_policy[abbr].get
                ),
            }
        if (
            pick is None
            or truth_size[abbr].get(pick["page_size"], -1.0)
            < best_size_perf
        ):
            problems["page_size"] = {
                "picked": pick and pick["page_size"],
                "truth": max(truth_size[abbr], key=truth_size[abbr].get),
            }
        if problems:
            mismatches[abbr] = problems
    return mismatches


def surrogate_suite() -> dict:
    """Ground truth simulates every cell; the surrogate sweep gets an
    exact-cell budget of 20% of the grid: the active sampler seeds each
    workload group, fits the ridge+k-NN cost model, and spends the rest
    on per-decision pretenders and uncertain near-crossover cells."""
    cells = [
        SweepCell(spec, policy, seed=3, timing=TIMING)
        for spec in _variants()
        for policy in _policies()
    ]
    config = SurrogateConfig(budget_fraction=BUDGET_FRACTION, min_seed=1, rounds=12)
    with tempfile.TemporaryDirectory(prefix="perf-surrogate-") as tmp:
        truth = SweepRunner(
            jobs=SURROGATE_JOBS, use_cache=True, cache_dir=Path(tmp) / "truth",
            surrogate=False,
        ).run_cells(cells)
        runner = SweepRunner(
            jobs=SURROGATE_JOBS, use_cache=True, cache_dir=Path(tmp) / "surrogate",
            surrogate=config,
        )
        swept = runner.run_cells(cells)

    stats = runner.stats
    exact_cost = stats.simulated + stats.cache_hits
    reduction = len(cells) / exact_cost if exact_cost else float("inf")
    mismatches = _fidelity(cells, truth, swept)
    divergent = sum(
        isinstance(ours, SimResult) and ours.to_dict() != theirs.to_dict()
        for ours, theirs in zip(swept, truth)
    )
    predicted = sum(isinstance(r, PredictedResult) for r in swept)
    print(
        f"[perf] surrogate: {len(cells)} cells ({len(_variants())} workloads x "
        f"{len(_policies())} policies), {stats.simulated} simulated exactly, "
        f"{predicted} predicted, {reduction:.2f}x fewer exact simulations, "
        f"{len(mismatches)} decision mismatches "
        f"({', '.join(sorted(mismatches)) or 'none'}), "
        f"{divergent} divergent exact cells"
    )
    return {
        "grid_cells": len(cells),
        "budget_fraction": BUDGET_FRACTION,
        "exact_simulated": stats.simulated,
        "cache_hits": stats.cache_hits,
        "predicted": predicted,
        "surrogate_rounds": stats.surrogate_rounds,
        "reduction": reduction,
        "decision_mismatches": mismatches,
        "divergent_exact_cells": divergent,
        "gates": [
            _gate("fewer exact simulations", reduction, 5.0, "higher"),
            _gate("decision mismatches", len(mismatches), 0, "lower"),
            _gate("divergent exact cells", divergent, 0, "lower"),
        ],
    }


# --------------------------------------------------------------- cells

#: The engine suite's cells plus one cell per remaining policy family,
#: so every replay shape shows up in the table.
TABLE_CELLS = (
    ("STE", "S-64KB"),
    ("STE", "S-2MB"),
    ("BLK", "CLAP"),
    ("GPT3", "Ideal_C-NUMA"),
    ("BLK", "F-Barre"),
    ("GPT3", "MGvm"),
)


def cells_suite() -> dict:
    rows = []
    print(
        f"[perf] {'cell':18s} {'staged ms':>22s} {'batched ms':>20s} "
        f"{'speedup':>17s} {'fast-path':>9s} {'flt-batch':>9s}"
    )
    for workload, policy in TABLE_CELLS:
        (staged, batched), timed = _paired(
            partial(run_workload, workload, policy, engine="staged"),
            partial(run_workload, workload, policy, engine="batched"),
        )
        fbf = batched.fault_batch_fraction
        rows.append({
            "cell": f"{workload}/{policy}",
            "staged_s": timed["first_s"],
            "batched_s": timed["second_s"],
            "speedup": timed["ratio"],
            "fast_path_fraction": batched.fast_path_fraction,
            "fault_batch_fraction": fbf,
            "identical": staged.to_dict() == batched.to_dict(),
        })
        print(
            f"[perf] {workload + '/' + policy:18s} "
            f"{_spread(timed['first_s'], 1e3, 1):>22s} "
            f"{_spread(timed['second_s'], 1e3, 1):>20s} "
            f"{_spread(timed['ratio']):>17s} {batched.fast_path_fraction:9.3f} "
            + (f"{fbf:9.3f}" if fbf is not None else f"{'-':>9s}")
        )
    totals = {
        engine: sum(row[f"{engine}_s"]["median"] for row in rows)
        for engine in ("staged", "batched")
    }
    speedup = totals["staged"] / totals["batched"]
    print(
        f"[perf] {'total (of medians)':18s} {totals['staged'] * 1e3:22.1f} "
        f"{totals['batched'] * 1e3:20.1f} {speedup:17.2f}"
    )
    return {
        "cells": rows,
        "totals": {**{f"{e}_s": t for e, t in totals.items()}, "speedup": speedup},
        "gates": [_gate(
            "cells where batched differs from staged",
            sum(not row["identical"] for row in rows), 0, "lower",
        )],
    }


# ---------------------------------------------------------------- main

SUITES = {
    "engine": engine_suite,
    "fault-batch": fault_batch_suite,
    "arena": arena_suite,
    "surrogate": surrogate_suite,
    "cells": cells_suite,
}
GATED = ("engine", "fault-batch", "arena", "surrogate")


def _committed() -> dict:
    """The committed record, or an empty one when none in this schema."""
    try:
        record = json.loads(RECORD_PATH.read_text())
    except FileNotFoundError:
        record = {}
    if record.get("schema") != SCHEMA:
        record = {"schema": SCHEMA, "suites": {}}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help=f"suites to run, of {', '.join(SUITES)} "
        f"(default: the gated ones, {', '.join(GATED)})",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write this run's record to PATH",
    )
    parser.add_argument(
        "--record", action="store_true",
        help=f"merge this run's suites into {RECORD_PATH.name}; the engine "
        "suite records its figures as the new baselines",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        parser.error(f"unknown suite(s): {', '.join(unknown)}")
    names = [name for name in SUITES if name in (args.suites or GATED)]

    suites = {**SUITES, "engine": partial(engine_suite, args.record)}
    host = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    record = {"schema": SCHEMA, "rounds": ROUNDS, "suites": {}}
    for name in names:
        record["suites"][name] = {"host": host, **suites[name]()}

    failed = False
    for name, entry in record["suites"].items():
        for gate in entry["gates"]:
            sign = ">=" if gate["better"] == "higher" else "<="
            line = (
                f"{name}: {gate['name']} = {gate['value']:.4g} "
                f"(gate {sign} {gate['bound']:g})"
            )
            if gate["passed"]:
                print(f"[perf] ok {line}")
            else:
                print(f"[perf] FAIL {line}", file=sys.stderr)
                failed = True

    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[perf] wrote {args.json}")
    if args.record:
        record["suites"] = {**_committed()["suites"], **record["suites"]}
        RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[perf] recorded {', '.join(names)} in {RECORD_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
