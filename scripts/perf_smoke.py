#!/usr/bin/env python
"""Perf smoke: keep telemetry-off replay cost in budget, per engine.

The pipeline's perf contract is that a telemetry-off run stays within a
small factor of the recorded baseline — for the staged engine *and* for
the batched steady-state engine (which must additionally stay faster
than staged, or there is no point to it).  Raw wall time does not
transfer across machines, so this script normalises by an in-process
*calibration loop* — a fixed pure-Python workload shaped like the
simulator hot path (dict probes, integer arithmetic, function calls).
The figure of merit is::

    normalized = sweep_seconds / calibration_seconds

which is (approximately) machine-independent: both numerator and
denominator scale with the interpreter's speed on this hardware.

The calibration measurement is taken **once per invocation** (median of
the timing passes) and memoised: recording both engines, or measuring
repeatedly in one process, reuses the same denominator, so engine
ratios cannot drift apart because the calibration loop happened to land
on a noisy scheduler quantum the second time around.

Usage::

    python scripts/perf_smoke.py                    # staged, <= 1.1x
    python scripts/perf_smoke.py --engine batched   # batched entry
    python scripts/perf_smoke.py --tolerance 1.2
    python scripts/perf_smoke.py --record           # rewrite all entries

The baseline lives in ``benchmarks/perf_baseline.json`` (schema 2: one
``engines`` entry per replay engine plus the shared
``calibration_seconds``).  CI runs the assertion mode on every push
(jobs ``perf-smoke`` and ``perf-batch``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim.runner import run_workload  # noqa: E402

BASELINE_PATH = REPO / "benchmarks" / "perf_baseline.json"
BASELINE_SCHEMA = 2

#: The measured sweep: one cheap cell, one fault-heavy cell, one
#: migration-policy cell — the three hot-path shapes the pipeline has.
SWEEP_CELLS = [
    ("STE", "S-64KB"),
    ("BLK", "CLAP"),
    ("GPT3", "Ideal_C-NUMA"),
]

#: Engines the baseline tracks.
ENGINES = ("staged", "batched")

#: Calibration loop size; ~0.2-0.4s of pure Python on 2020s hardware.
CALIBRATION_OPS = 400_000

#: Memoised per-invocation calibration time (see module docstring).
_CALIBRATION_MEMO = None


def _calibration_pass() -> float:
    """One timed pass of the hot-path-shaped calibration loop."""
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

    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_OPS):
        vaddr = (i * 2654435761) & 0xFFFFFF
        chiplet = (vaddr >> 16) & 3
        acc += touch(vaddr & ~0xFFFF, chiplet)
        counters[chiplet] += acc & 1
    elapsed = time.perf_counter() - start
    assert acc  # keep the loop un-eliminable
    return elapsed


def calibration_seconds(repeats: int = 5) -> float:
    """Median-of-``repeats`` calibration time, measured once per process.

    The median (not the min) is the denominator: the min couples the
    normalised figure to the single luckiest pass, which is exactly the
    drift that made back-to-back invocations disagree by more than the
    tolerance on loaded machines.
    """
    global _CALIBRATION_MEMO
    if _CALIBRATION_MEMO is None:
        _CALIBRATION_MEMO = statistics.median(
            _calibration_pass() for _ in range(repeats)
        )
    return _CALIBRATION_MEMO


def measure_engine(engine: str, repeats: int = 5) -> dict:
    """Best-of-``repeats`` sweep timing for one replay engine."""
    calibration = calibration_seconds(repeats)
    # Warm imports/traces once so the timed passes measure the engine.
    for workload, policy in SWEEP_CELLS:
        run_workload(workload, policy, engine=engine)
    sweep = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for workload, policy in SWEEP_CELLS:
            result = run_workload(workload, policy, engine=engine)
            assert result.telemetry is None, "perf smoke must run telemetry-off"
        sweep = min(sweep, time.perf_counter() - start)
    return {
        "sweep_seconds": sweep,
        "normalized": sweep / calibration,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine", choices=ENGINES, default="staged",
        help="replay engine to measure and assert (default staged)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.1,
        help="allowed normalized-time ratio vs the baseline (default 1.1)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite benchmarks/perf_baseline.json with this machine's "
             "measurement of BOTH engines instead of asserting",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions; the best (least noisy) pass counts",
    )
    args = parser.parse_args(argv)

    if args.record:
        engines = {}
        for engine in ENGINES:
            engines[engine] = measure_engine(engine, repeats=args.repeats)
            print(
                f"[perf-smoke] {engine}: "
                f"sweep {engines[engine]['sweep_seconds']:.3f}s, "
                f"normalized {engines[engine]['normalized']:.2f}"
            )
        baseline = {
            "schema": BASELINE_SCHEMA,
            "cells": [f"{w}/{p}" for w, p in SWEEP_CELLS],
            "calibration_seconds": calibration_seconds(args.repeats),
            "engines": engines,
        }
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"[perf-smoke] baseline recorded to {BASELINE_PATH}")
        return 0

    current = measure_engine(args.engine, repeats=args.repeats)
    print(
        f"[perf-smoke] engine {args.engine}: "
        f"calibration {calibration_seconds(args.repeats):.3f}s, "
        f"sweep {current['sweep_seconds']:.3f}s "
        f"({', '.join(f'{w}/{p}' for w, p in SWEEP_CELLS)}), "
        f"normalized {current['normalized']:.2f}"
    )

    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(
            f"[perf-smoke] baseline schema {baseline.get('schema')} != "
            f"{BASELINE_SCHEMA}; re-record with --record",
            file=sys.stderr,
        )
        return 2
    if baseline.get("cells") != [f"{w}/{p}" for w, p in SWEEP_CELLS]:
        print(
            "[perf-smoke] baseline measured different cells "
            f"({baseline.get('cells')}); re-record with --record",
            file=sys.stderr,
        )
        return 2
    entry = (baseline.get("engines") or {}).get(args.engine)
    if entry is None:
        print(
            f"[perf-smoke] baseline has no entry for engine "
            f"{args.engine!r}; re-record with --record",
            file=sys.stderr,
        )
        return 2
    ratio = current["normalized"] / entry["normalized"]
    print(
        f"[perf-smoke] baseline normalized {entry['normalized']:.2f}, "
        f"ratio {ratio:.3f} (budget {args.tolerance:.2f}x)"
    )
    if ratio > args.tolerance:
        print(
            f"[perf-smoke] FAIL: telemetry-off wall time is {ratio:.2f}x "
            f"the recorded baseline (> {args.tolerance:.2f}x budget)",
            file=sys.stderr,
        )
        return 1
    print("[perf-smoke] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
