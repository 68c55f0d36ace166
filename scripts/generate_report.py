#!/usr/bin/env python
"""Run every experiment and dump the measured numbers for EXPERIMENTS.md.

Every experiment goes through the parallel runner: ``--jobs`` (default
``REPRO_JOBS`` or the CPU count) fans simulations out across processes,
and repeated runs reuse the content-addressed result cache
(``REPRO_CACHE_DIR`` or ``~/.cache/repro``; disable with ``--no-cache``).
"""

import argparse
import importlib
import json
import time

from repro.__main__ import _EXPERIMENTS
from repro.sim.parallel import SweepRunner

#: Every experiment ``repro experiment`` knows, in its listing order.
MODULES = [
    importlib.import_module(f"repro.experiments.{name}")
    for name in _EXPERIMENTS.values()
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument(
        "--output", default="experiment_report.json",
        help="where to write the summary JSON",
    )
    args = parser.parse_args()

    runner = SweepRunner(jobs=args.jobs, use_cache=not args.no_cache)
    report = {}
    for module in MODULES:
        start = time.time()
        result = module.run(quick=args.quick, runner=runner)
        elapsed = time.time() - start
        report[result.experiment] = {
            "summary": result.summary,
            "seconds": round(elapsed, 1),
        }
        print(f"=== {result.experiment} ({elapsed:.1f}s)")
        print(result.format())
        print()
    print(runner.summary_line())
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)


if __name__ == "__main__":
    main()
