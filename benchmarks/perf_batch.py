#!/usr/bin/env python
"""Benchmark: staged vs batched replay, plus the fault-heavy sweep.

Prints a per-cell table of staged/batched wall time (best of
``--repeats``), the batched speedup over staged, and the batched
engine's ``fast_path_fraction`` / ``fault_batch_fraction`` (share of
accesses that needed no fault lookup, and share of page faults
resolved by the bulk fault path).  Both engines
are bit-identical in results — asserted here on every measured cell —
so the table is purely a wall time comparison.

The second section measures the regime the vectorized fault path
targets: a fault-heavy quick sweep (first-touch-dominated trace, six
fault-batching cells) replayed cell by cell through the staged engine
and through the batched engine, results asserted bit-identical.  The
ratio is recorded in ``BENCH_batch.json``; ``--min-sweep-speedup``
turns it into the CI gate.

Usage::

    python benchmarks/perf_batch.py
    python benchmarks/perf_batch.py --repeats 7 --cells STE/S-64KB BLK/CLAP
    python benchmarks/perf_batch.py --json BENCH_batch.json

Unlike ``scripts/perf_smoke.py`` (the CI budget gate), this script has
no baseline and never fails on timing unless ``--min-sweep-speedup``
is given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.arch.address import InterleavePolicy  # noqa: E402
from repro.sim.engine import ENGINES, run_simulation  # noqa: E402
from repro.sim.parallel import SweepCell  # noqa: E402
from repro.sim.runner import run_workload  # noqa: E402
from repro.trace.workload import (  # noqa: E402
    Pattern,
    StructureSpec,
    WorkloadSpec,
)
from repro.units import MB  # noqa: E402

#: Default cells: the perf-smoke quick sweep plus one cell per remaining
#: policy family, so every replay shape shows up in the table.
DEFAULT_CELLS = [
    "STE/S-64KB",
    "STE/S-2MB",
    "BLK/CLAP",
    "GPT3/Ideal_C-NUMA",
    "BLK/F-Barre",
    "GPT3/MGvm",
]


def _fault_heavy_spec() -> WorkloadSpec:
    """First-touch-dominated workload for the sweep measurement.

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


def _fault_heavy_cells() -> list:
    """Six fault-batching cells on one trace: three policies that opt
    into the vectorized fault path, under both interleave modes."""
    spec = _fault_heavy_spec()
    return [
        SweepCell(spec, policy, interleave=interleave)
        for policy in ("S-64KB", "Ideal", "MGvm")
        for interleave in (
            InterleavePolicy.NUMA_AWARE,
            InterleavePolicy.NAIVE,
        )
    ]


def _best(measure, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        measure()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_cells(cells, repeats: int) -> dict:
    print(
        f"{'cell':24s} {'staged':>9s} {'batched':>9s} "
        f"{'speedup':>8s} {'fast-path':>10s} {'flt-batch':>10s}"
    )
    rows = []
    totals = {engine: 0.0 for engine in ENGINES}
    for workload, policy in cells:
        staged, batched = (
            run_workload(workload, policy, engine=engine)
            for engine in ENGINES
        )
        assert batched.to_dict() == staged.to_dict(), (
            f"{workload}/{policy}: batched diverged from staged"
        )
        times = {
            engine: _best(
                lambda engine=engine: run_workload(
                    workload, policy, engine=engine
                ),
                repeats,
            )
            for engine in ENGINES
        }
        for engine in ENGINES:
            totals[engine] += times[engine]
        fbf = batched.fault_batch_fraction
        row = {
            "cell": f"{workload}/{policy}",
            **{f"{engine}_ms": times[engine] * 1e3 for engine in ENGINES},
            "speedup": times["staged"] / times["batched"],
            "fast_path_fraction": batched.fast_path_fraction,
            "fault_batch_fraction": fbf,
        }
        rows.append(row)
        print(
            f"{row['cell']:24s} "
            f"{row['staged_ms']:7.1f}ms {row['batched_ms']:7.1f}ms "
            f"{row['speedup']:7.2f}x "
            f"{row['fast_path_fraction']:10.3f} "
            + (f"{fbf:10.3f}" if fbf is not None else f"{'-':>10s}")
        )
    print(
        f"{'total':24s} "
        f"{totals['staged'] * 1e3:7.1f}ms {totals['batched'] * 1e3:7.1f}ms "
        f"{totals['staged'] / totals['batched']:7.2f}x"
    )
    return {
        "cells": rows,
        "totals": {
            **{f"{engine}_ms": totals[engine] * 1e3 for engine in ENGINES},
            "speedup": totals["staged"] / totals["batched"],
        },
    }


def _run_sweep(engine: str) -> list:
    """The fault-heavy sweep, cell by cell, under one engine."""
    return [
        run_simulation(
            cell.workload,
            cell.policy,
            cell.config,
            interleave=cell.interleave,
            seed=cell.seed,
            engine=engine,
        )
        for cell in _fault_heavy_cells()
    ]


def _measure_sweep(repeats: int) -> dict:
    cells = _fault_heavy_cells()
    staged, batched = (_run_sweep(engine) for engine in ENGINES)
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in staged], (
        "batched sweep diverged from the staged sweep"
    )

    times = {
        engine: _best(lambda engine=engine: _run_sweep(engine), repeats)
        for engine in ENGINES
    }
    fractions = [r.fault_batch_fraction for r in batched]
    sweep = {
        "workload": "FHVY",
        "cells": [
            f"{cell.workload.abbr}/{cell.policy.name}"
            f"+{cell.interleave.name}"
            for cell in cells
        ],
        **{f"{engine}_ms": times[engine] * 1e3 for engine in ENGINES},
        "speedup": times["staged"] / times["batched"],
        "fault_batch_fractions": fractions,
    }
    print()
    print(
        f"fault-heavy sweep ({len(cells)} cells): "
        f"staged {sweep['staged_ms']:.0f}ms -> "
        f"batched {sweep['batched_ms']:.0f}ms "
        f"({sweep['speedup']:.2f}x, fault-batch fractions {fractions})"
    )
    return sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions per engine; the best pass counts",
    )
    parser.add_argument(
        "--cells", nargs="+", default=DEFAULT_CELLS, metavar="WORKLOAD/POLICY",
        help=f"cells to measure (default: {' '.join(DEFAULT_CELLS)})",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the measurements to PATH as JSON (BENCH_batch.json)",
    )
    parser.add_argument(
        "--skip-cells", action="store_true",
        help="skip the per-cell table; measure only the fault-heavy sweep",
    )
    parser.add_argument(
        "--min-sweep-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless the fault-heavy sweep's batched "
             "speedup over staged >= X",
    )
    args = parser.parse_args(argv)

    cells = []
    for text in args.cells:
        workload, _, policy = text.partition("/")
        if not policy:
            parser.error(f"cell {text!r} is not WORKLOAD/POLICY")
        cells.append((workload, policy))

    payload = {"schema": "repro/bench-batch/v2", "repeats": args.repeats}
    if not args.skip_cells:
        payload.update(_measure_cells(cells, args.repeats))
    payload["fault_heavy_sweep"] = _measure_sweep(args.repeats)

    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.min_sweep_speedup is not None:
        speedup = payload["fault_heavy_sweep"]["speedup"]
        if speedup < args.min_sweep_speedup:
            print(
                f"FAIL: fault-heavy sweep speedup {speedup:.2f}x < "
                f"{args.min_sweep_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
