#!/usr/bin/env python
"""Benchmark: cold vs warm ``repro lint`` over the live package.

The interprocedural rules (RPR008–RPR010) run on per-file *facts*
extracted once per content hash and cached under
``<cache>/lint-facts``; a warm run re-analyzes only changed files — on
an unchanged tree, none.  This script measures what the cache buys:

* **cold** — a fresh, empty ``REPRO_CACHE_DIR``: every file is parsed,
  its facts extracted and written back;
* **warm** — the same directory again: every extraction is a cache
  hit, and only the (cheap) rule passes over the facts run.

Both runs execute the full rule set over the live tree in-process and
must produce identical findings — asserted on every repeat.  The
speedup is recorded in ``BENCH_lint.json``; ``--min-speedup`` turns it
into a gate for CI (acceptance: warm >= 5x cold).

Usage::

    python benchmarks/perf_lint.py
    python benchmarks/perf_lint.py --repeats 5
    python benchmarks/perf_lint.py --json BENCH_lint.json --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis import Project, run_lint  # noqa: E402
from repro.analysis.cli import default_scan_root  # noqa: E402


def _timed_run(root: Path):
    """(wall seconds, findings) of one full lint of ``root``."""
    start = time.perf_counter()
    findings = run_lint(Project(root=root))
    return time.perf_counter() - start, findings


def measure(repeats: int) -> dict:
    root = default_scan_root()
    cold_times = []
    warm_times = []
    reference = None
    for _ in range(repeats):
        cache = tempfile.mkdtemp(prefix="repro-lint-bench-")
        os.environ["REPRO_CACHE_DIR"] = cache
        try:
            cold, cold_findings = _timed_run(root)
            warm, warm_findings = _timed_run(root)
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)
            shutil.rmtree(cache, ignore_errors=True)
        if reference is None:
            reference = cold_findings
        assert cold_findings == warm_findings == reference, (
            "cold and warm lint disagree — the facts cache is unsound"
        )
        cold_times.append(cold)
        warm_times.append(warm)
    cold_best = min(cold_times)
    warm_best = min(warm_times)
    return {
        "files": len(list(Project(root=root).sources())),
        "findings": len(reference or []),
        "cold_seconds": cold_best,
        "warm_seconds": warm_best,
        "speedup": cold_best / warm_best if warm_best > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="measurement repeats; best-of wall times are reported",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the measurement payload as JSON",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless warm speedup over cold >= X",
    )
    args = parser.parse_args(argv)

    payload = {"schema": "repro/bench-lint/v1", "repeats": args.repeats}
    payload.update(measure(args.repeats))

    print(
        f"lint over {payload['files']} files: "
        f"cold {payload['cold_seconds'] * 1000:.0f} ms, "
        f"warm {payload['warm_seconds'] * 1000:.0f} ms "
        f"({payload['speedup']:.1f}x), "
        f"{payload['findings']} finding(s)"
    )

    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")

    if args.min_speedup is not None and payload["speedup"] < args.min_speedup:
        print(
            f"FAIL: warm lint speedup {payload['speedup']:.2f}x < "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
