#!/usr/bin/env python
"""Benchmark: per-worker trace residency with and without the trace store.

Without the store every sweep worker owns a private copy of its cell's
trace, so trace memory scales as arena-bytes x ``--jobs``.  With the
store (``--trace-store``) the parent materializes each distinct trace
once as a format-v2 arena archive and workers attach via ``np.memmap``
— the kernel page cache backs all of them with one set of physical
pages, and each worker's *proportional* share (Pss) drops to roughly
``arena_bytes / jobs``.

This script measures that directly: ``--jobs`` worker processes hold
the same trace simultaneously — privately generated in one pass,
store-attached in the other — touch every page, and read their own
``/proc/self/smaps`` entry for the arena mapping.  The figure of merit
is the summed per-worker Pss across the fleet; the acceptance gate
(``--min-reduction``, recorded in ``BENCH_trace_arena.json``) requires
the store to cut it by at least 2x.

A second section asserts the store never changes results: a quick
``--jobs 4`` sweep runs store-off and store-on under both engines
(staged, batched) and every cell must be bit-identical.

Usage::

    python benchmarks/perf_trace_arena.py
    python benchmarks/perf_trace_arena.py --jobs 8 --json BENCH_trace_arena.json
    python benchmarks/perf_trace_arena.py --min-reduction 2.0
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim.parallel import SweepCell, SweepRunner  # noqa: E402
from repro.trace.store import TraceStore, trace_fingerprint  # noqa: E402
from repro.trace.workload import (  # noqa: E402
    Pattern,
    StructureSpec,
    Workload,
    WorkloadSpec,
)
from repro.units import MB  # noqa: E402

#: Engines the bit-identity section sweeps under.
ENGINES = ("staged", "batched")

#: Cells for the bit-identity quick sweep: two distinct fingerprints,
#: three cells, so the sweep exercises both materialize and re-attach.
IDENTITY_CELLS = (
    ("STE", "S-64KB"),
    ("STE", "CLAP"),
    ("BLK", "CLAP"),
)


def _residency_spec() -> WorkloadSpec:
    """A trace big enough that page-granular Pss accounting is exact to
    well under 1%: many waves over two structures yields an arena of
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
    """smaps counters (bytes) summed over mappings covering the arena.

    ``/proc/self/smaps`` reports per-VMA Pss (proportional share of
    each resident page: a page shared by N processes counts 1/N here),
    which is exactly the "who pays for this trace" question.
    """
    totals = {"Pss": 0, "Rss": 0, "Private_Dirty": 0, "Private_Clean": 0}
    in_range = False
    with open("/proc/self/smaps") as handle:
        for line in handle:
            head = line.split()[0]
            if head.endswith("-") or "-" in head.rstrip(":"):
                # VMA header line: "start-end perms offset dev inode ..."
                try:
                    start_s, end_s = head.split("-", 1)
                    start, end = int(start_s, 16), int(end_s, 16)
                except ValueError:
                    continue
                in_range = start < addr + nbytes and addr < end
                continue
            if not in_range:
                continue
            key = head.rstrip(":")
            if key in totals:
                totals[key] += int(line.split()[1]) * 1024
    return totals


def _residency_worker(mode, root, spec, chiplets, seed, barrier, queue):
    """Hold the trace, touch every page, report the arena mapping's Pss.

    Both barriers matter: the first makes sure every worker has faulted
    the whole trace in before anyone reads smaps (Pss splits only among
    mappings that exist *now*), the second keeps the mapping alive
    until everyone has measured.
    """
    trace = None
    if mode == "store":
        # The parent materialized the archive; a worker only attaches.
        fingerprint = trace_fingerprint(spec, chiplets, seed)
        trace = TraceStore(root).attach(fingerprint)
    attached = trace is not None
    if trace is None:
        trace = Workload(spec, chiplets, seed=seed).build_trace(seed)
    # Touch all three columns so every arena page is resident.
    checksum = (
        int(trace.vaddrs.sum())
        ^ int(trace.chiplets.astype("int64").sum())
        ^ int(trace.alloc_ids.astype("int64").sum())
    )
    barrier.wait()
    addr = trace.arena.__array_interface__["data"][0]
    counters = _mapping_pss(addr, trace.nbytes)
    barrier.wait()
    queue.put(
        {
            "mode": mode,
            "attached": attached,
            "nbytes": int(trace.nbytes),
            "checksum": checksum,
            **counters,
        }
    )


def _measure_residency(jobs: int, store_root: Path) -> dict:
    spec = _residency_spec()
    chiplets, seed = 4, 7

    # Materialize once up front so workers in store mode only attach.
    store = TraceStore(store_root)
    fingerprint, nbytes, _ = store.ensure(spec, chiplets, seed)

    ctx = multiprocessing.get_context("spawn")
    out = {}
    for mode in ("private", "store"):
        barrier = ctx.Barrier(jobs)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_residency_worker,
                args=(
                    mode, str(store_root), spec, chiplets, seed,
                    barrier, queue,
                ),
            )
            for _ in range(jobs)
        ]
        for p in procs:
            p.start()
        reports = [queue.get(timeout=600) for _ in procs]
        for p in procs:
            p.join(timeout=600)
        assert all(r["nbytes"] == reports[0]["nbytes"] for r in reports)
        assert len({r["checksum"] for r in reports}) == 1, (
            f"{mode}: workers disagreed on trace content"
        )
        if mode == "store":
            assert all(r["attached"] for r in reports), (
                "store-mode worker fell back to private generation"
            )
        out[mode] = reports

    total = {m: sum(r["Pss"] for r in out[m]) for m in out}
    reduction = total["private"] / max(1, total["store"])
    arena_mb = out["private"][0]["nbytes"] / 1e6
    print(f"trace arena: {arena_mb:.1f} MB, {jobs} workers")
    print(
        f"{'mode':10s} {'sum Pss':>12s} {'per-worker Pss':>16s} "
        f"{'private dirty':>14s}"
    )
    for mode in ("private", "store"):
        dirty = sum(r["Private_Dirty"] for r in out[mode])
        print(
            f"{mode:10s} {total[mode] / 1e6:10.1f}MB "
            f"{total[mode] / jobs / 1e6:14.1f}MB {dirty / 1e6:12.1f}MB"
        )
    print(f"trace-resident bytes reduction: {reduction:.2f}x")
    return {
        "jobs": jobs,
        "arena_nbytes": out["private"][0]["nbytes"],
        "fingerprint": fingerprint,
        "per_worker": {
            mode: [
                {k: r[k] for k in ("Pss", "Rss", "Private_Dirty")}
                for r in out[mode]
            ]
            for mode in out
        },
        "total_pss": {mode: total[mode] for mode in total},
        "reduction": reduction,
    }


def _assert_identity(jobs: int, store_root: Path) -> dict:
    """Store-on and store-off sweeps are bit-identical per engine."""
    cells = lambda: [  # noqa: E731 — fresh cells per run
        SweepCell(workload, policy, seed=3)
        for workload, policy in IDENTITY_CELLS
    ]
    engines = {}
    for engine in ENGINES:
        os.environ["REPRO_ENGINE"] = engine
        try:
            off = SweepRunner(jobs=jobs, use_cache=False).run_cells(cells())
            runner = SweepRunner(
                jobs=jobs, use_cache=False,
                trace_store=store_root / f"identity-{engine}",
            )
            on = runner.run_cells(cells())
        finally:
            del os.environ["REPRO_ENGINE"]
        assert [r.to_dict() for r in on] == [r.to_dict() for r in off], (
            f"{engine}: store-on sweep diverged from store-off"
        )
        engines[engine] = {
            "cells": len(off),
            "identical": True,
            "traces_materialized": runner.stats.traces_materialized,
            "traces_attached": runner.stats.traces_attached,
            "trace_bytes_shared": runner.stats.trace_bytes_shared,
        }
        print(
            f"identity[{engine}]: {len(off)} cells bit-identical "
            f"({runner.stats.traces_materialized} materialized, "
            f"{runner.stats.traces_attached} attached)"
        )
    return engines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker processes holding the trace simultaneously",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the measurements to PATH (BENCH_trace_arena.json)",
    )
    parser.add_argument(
        "--min-reduction", type=float, default=None, metavar="X",
        help="exit nonzero unless summed worker Pss drops >= Xx",
    )
    parser.add_argument(
        "--skip-identity", action="store_true",
        help="skip the store-on/off bit-identity sweeps",
    )
    args = parser.parse_args(argv)

    if not Path("/proc/self/smaps").exists():
        print("SKIP: /proc/self/smaps unavailable on this platform")
        return 0

    with tempfile.TemporaryDirectory(prefix="trace-arena-bench-") as tmp:
        root = Path(tmp)
        payload = {
            "schema": "repro/bench-trace-arena/v1",
            "residency": _measure_residency(args.jobs, root / "store"),
        }
        if not args.skip_identity:
            payload["identity"] = _assert_identity(4, root)

    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.min_reduction is not None:
        reduction = payload["residency"]["reduction"]
        if reduction < args.min_reduction:
            print(
                f"FAIL: trace-resident reduction {reduction:.2f}x < "
                f"{args.min_reduction:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
