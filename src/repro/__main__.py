"""Command-line interface: ``python -m repro``.

Sub-commands::

    python -m repro run STE --policy CLAP --policy S-64KB
    python -m repro sweep LPS
    python -m repro explore STE LPS PR --budget 40
    python -m repro experiment fig18 --quick --jobs 4
    python -m repro report --quick --jobs 4
    python -m repro list

``run`` simulates one workload under one or more policies; ``sweep``
reproduces its Figure 6 column; ``explore`` answers the design-space
question (which policy wins, which static page size wins, per
workload) with the surrogate-guided active sampler, simulating only
the cells the answers actually depend on; ``experiment`` regenerates a
paper figure/table (optionally on the quick workload subset);
``report`` regenerates the sweep-style figures/tables in one pass
through the parallel runner; ``list`` shows the available workloads,
policies and experiments.  Invoking ``python -m repro`` with only
flags (e.g. ``python -m repro --quick --jobs 4``) is shorthand for
``report``.

``experiment`` and ``report`` fan simulations out across processes
(``--jobs``, default ``REPRO_JOBS`` or the CPU count) and reuse results
from the content-addressed cache (``REPRO_CACHE_DIR`` or
``~/.cache/repro``; disable with ``--no-cache``, wipe with
``--clear-cache``).

Sweeps are fault tolerant: ``--cell-timeout`` (default
``REPRO_CELL_TIMEOUT``) kills cells that hang, ``--on-error
raise|skip|retry`` decides whether a failing cell aborts the sweep, is
recorded and skipped, or is retried with exponential backoff
(``--retries`` extra attempts), and completed cells are always flushed
to the result cache — an aborted sweep resumes from where it stopped.

``--runners N`` (default ``REPRO_RUNNERS``) goes further: cells execute
through the crash-safe work-stealing coordinator — N independent runner
processes claiming cells via short-TTL lease files (``--lease-ttl`` /
``REPRO_LEASE_TTL``), stealing from dead runners and journaling every
completion.  A killed sweep is continued by ``python -m repro sweep
--resume <sweep-id>`` (the id is printed at the end of a coordinator
run, or fixed up front with ``--sweep-id`` / ``REPRO_SWEEP_ID``) with
bit-identical final results.

``--trace-store [DIR]`` (default: the ``REPRO_TRACE_STORE`` env flag,
else off; ``--no-trace-store`` forces it off) has the sweep parent
materialize each distinct trace once into a shared, mmap-attachable
store (default ``<cache>/traces``), under ``--jobs`` and ``--runners``
alike; sweep workers — and coordinator runners across machines —
attach traces zero-copy by fingerprint instead of each regenerating a
private copy, cutting per-worker trace residency to roughly ``1/jobs``
with bit-identical results.

``--telemetry`` (default: the ``REPRO_TELEMETRY`` env flag) records
per-stage pipeline telemetry and writes one JSON file per simulation
into ``--telemetry-dir`` (default ``REPRO_TELEMETRY_DIR`` or
``./telemetry``).

``--engine staged|batched`` selects the replay engine (default:
``REPRO_ENGINE`` or batched; results are bit-identical, only wall time
differs — see DESIGN.md section 7); an unknown ``REPRO_ENGINE`` value
is a usage error before anything runs.  ``--profile`` wraps the
selected command in ``cProfile`` and dumps a ``pstats`` file next
to the telemetry output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .render import render_bars
from .sim.durability import atomic_write
from .sim.parallel import OnError, ResultCache, SweepCell, SweepRunner
from .sim.runner import ENGINES, resolve_engine, resolve_policy, run_workload
from .trace.suite import SUITE, workload_by_name
from .units import SWEEP_PAGE_SIZES, size_label

if TYPE_CHECKING:
    from .sim.coordinator import CoordinatorConfig

_EXPERIMENTS = {
    "fig1": "fig01_page_size_intro",
    "fig2": "fig02_remote_caching",
    "sec26": "sec26_interleaving",
    "fig6": "fig06_page_size_sweep",
    "fig8": "fig08_structure_sensitivity",
    "fig10": "fig10_chiplet_locality",
    "table2": "table2_workloads",
    "fig18": "fig18_main",
    "table4": "table4_selected_sizes",
    "fig19": "fig19_static_analysis",
    "fig20": "fig20_migration",
    "fig21": "fig21_caching_synergy",
    "fig22": "fig22_eight_chiplets",
}

_POLICY_NAMES = (
    "S-4KB", "S-64KB", "S-2MB", "CLAP", "Ideal", "MGvm", "F-Barre",
    "GRIT", "Ideal_C-NUMA", "Ideal_C-NUMA+inter",
)

#: The sweep-style experiments the ``report`` command regenerates.
_REPORT_EXPERIMENTS = ("fig6", "table2", "fig18", "fig22")

#: The policy axis of the ``explore`` grid: the full static page-size
#: sweep (the "best static size" answer) plus the adaptive schemes
#: (the "winning policy" answer).
_EXPLORE_POLICIES = tuple(
    [f"S-{size // 1024}KB" for size in SWEEP_PAGE_SIZES]
    + [
        "CLAP",
        "MGVM",
        "IDEAL_C-NUMA",
        "IDEAL_C-NUMA+INTER",
        "GRIT",
        "BARRE",
        "IDEAL",
    ]
)


def _coordinator_config(
    args: argparse.Namespace, *, force: bool = False
) -> "CoordinatorConfig | None":
    """Coordinator settings from flags/env, or None (pool mode).

    ``--runners`` (or ``REPRO_RUNNERS``) switches sweep execution to
    the lease-based work-stealing coordinator; ``force`` (used by
    ``sweep --resume``) enables it with the default runner count even
    when neither was given.  The coordinator module loads only then.
    """
    requested = getattr(args, "runners", None)
    if requested is None and not os.environ.get("REPRO_RUNNERS") and not force:
        return None
    from .sim.coordinator import (
        CoordinatorConfig,
        resolve_lease_ttl,
        resolve_runners,
        resolve_sweep_id,
    )

    runners = resolve_runners(requested)
    return CoordinatorConfig(
        sweep_id=resolve_sweep_id(getattr(args, "sweep_id", None)),
        runners=runners if runners is not None else 2,
        lease_ttl=resolve_lease_ttl(getattr(args, "lease_ttl", None)),
    )


def _make_runner(
    args: argparse.Namespace,
    *,
    force_coordinator: bool = False,
    surrogate=None,
) -> SweepRunner:
    """Build the runner the sweep-style commands share, honouring flags.

    ``SweepRunner`` rejects conflicting options once the environment is
    resolved; that, or a malformed ``REPRO_*`` value, exits 2.
    """
    trace_store = None
    if getattr(args, "no_trace_store", False):
        trace_store = False
    elif getattr(args, "trace_store", None) is not None:
        trace_store = args.trace_store
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cell_timeout=args.cell_timeout,
            on_error=args.on_error,
            max_attempts=args.retries + 1,
            telemetry=args.telemetry,
            telemetry_dir=args.telemetry_dir,
            coordinator=_coordinator_config(args, force=force_coordinator),
            trace_store=trace_store,
            surrogate=surrogate,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2)
    if args.clear_cache:
        removed = ResultCache().clear()
        print(f"cleared {removed} cached result(s)")
    return runner


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel simulation processes "
             "(default: REPRO_JOBS or CPU count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="wipe the result cache before running",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="kill a simulation cell exceeding this many seconds "
             "(default: REPRO_CELL_TIMEOUT, or no timeout)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "skip", "retry"), default="raise",
        help="failing cell handling: abort the sweep (raise, default), "
             "record and continue (skip), or retry with backoff (retry)",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="extra attempts for retried cells (default: 2)",
    )
    parser.add_argument(
        "--trace-store", nargs="?", const=True, default=None, metavar="DIR",
        help="materialize each distinct trace once into a shared "
             "mmap-attachable store (default directory: <cache>/traces) "
             "so sweep workers share one set of trace pages instead of "
             "regenerating private copies; results are bit-identical "
             "(default: the REPRO_TRACE_STORE env flag, else off)",
    )
    parser.add_argument(
        "--no-trace-store", action="store_true",
        help="disable the shared trace store even when "
             "REPRO_TRACE_STORE is set",
    )
    _add_coordinator_flags(parser)
    _add_telemetry_flags(parser)
    _add_engine_flags(parser)


def _add_coordinator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runners", type=int, default=None, metavar="N",
        help="run cells through the crash-safe work-stealing "
             "coordinator with N independent runner processes "
             "(default: REPRO_RUNNERS, else the process pool)",
    )
    parser.add_argument(
        "--sweep-id", default=None, metavar="ID",
        help="coordinator sweep id (default: REPRO_SWEEP_ID, else "
             "derived from the cell fingerprints — identical sweeps "
             "share state and resume each other)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="seconds before an unrenewed cell lease may be stolen "
             "from a dead runner (default: REPRO_LEASE_TTL or 30)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="replay engine: staged or batched (default: the "
             "REPRO_ENGINE env flag, or batched); results are "
             "bit-identical",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command under cProfile and dump a pstats file "
             "next to the telemetry output",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true", default=None,
        help="record per-stage pipeline telemetry and dump one JSON "
             "file per simulation (default: the REPRO_TELEMETRY env flag)",
    )
    parser.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="directory for telemetry dumps "
             "(default: REPRO_TELEMETRY_DIR or ./telemetry)",
    )


def _dump_run_telemetry(result, telemetry_dir) -> Path:
    """Write one telemetry JSON for a ``run``-command simulation."""
    root = Path(
        telemetry_dir
        if telemetry_dir is not None
        else os.environ.get("REPRO_TELEMETRY_DIR", "telemetry")
    )
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{result.workload}-{result.policy}.json"
    atomic_write(
        path,
        json.dumps(
            {
                "workload": result.workload,
                "policy": result.policy,
                "telemetry": result.telemetry,
            },
            indent=2,
        ),
        fsync=False,
    )
    return path


def _run_profiled(handler, args: argparse.Namespace) -> int:
    """Run ``handler`` under cProfile; dump pstats beside telemetry."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        rc = handler(args)
    finally:
        profiler.disable()
        root = Path(
            getattr(args, "telemetry_dir", None)
            or os.environ.get("REPRO_TELEMETRY_DIR", "telemetry")
        )
        root.mkdir(parents=True, exist_ok=True)
        path = root / f"profile-{args.command}.pstats"
        profiler.dump_stats(str(path))
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(15)
        print(f"[profile] stats written to {path}", file=sys.stderr)
    return rc


def _print_failures(runner: SweepRunner) -> None:
    report = runner.failure_report()
    if report:
        print(report, file=sys.stderr)


def _run_experiment_module(module, args, runner):
    """Run ``module`` on ``runner``, naming failed cells if it raises."""
    try:
        return module.run(quick=args.quick, runner=runner)
    except Exception:
        # Under --on-error skip, failed cells yield None results the
        # aggregation cannot use; name the real culprits first.  Under
        # raise, the SweepError itself names the failed cell.
        if runner.stats.failures and runner.on_error is not OnError.RAISE:
            _print_failures(runner)
            print(
                "experiment aggregation failed because the cells above "
                "did; rerun with --on-error retry or raise",
                file=sys.stderr,
            )
        raise


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workloads (Table 2):")
    for spec in SUITE:
        print(f"  {spec.abbr:6s} {spec.title}")
    print("\npolicies:")
    for name in _POLICY_NAMES:
        print(f"  {name}")
    print("\nexperiments:")
    for key in _EXPERIMENTS:
        print(f"  {key}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = workload_by_name(args.workload)
    policies = args.policy or ["S-64KB", "S-2MB", "CLAP"]
    baseline = None
    print(f"{'policy':20s} {'perf':>8s} {'speedup':>8s} {'remote':>7s} "
          f"{'TLB MPKI':>9s}")
    for name in policies:
        result = run_workload(
            spec, resolve_policy(name), seed=args.seed,
            telemetry=args.telemetry,
        )
        if baseline is None:
            baseline = result
        print(
            f"{result.policy:20s} {result.performance:8.4f} "
            f"{result.speedup_over(baseline):8.3f} "
            f"{result.remote_ratio:7.3f} {result.l2_tlb_mpki:9.2f}"
        )
        if result.selections:
            chosen = ", ".join(
                f"{k}={v.label}" for k, v in result.selections.items()
            )
            print(f"{'':20s} selections: {chosen}")
        if result.telemetry is not None:
            path = _dump_run_telemetry(result, args.telemetry_dir)
            print(f"{'':20s} telemetry: {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .policies import StaticPaging

    if args.resume:
        # Resuming names an existing sweep directory; its pickled cells
        # are the workload, so no positional argument is needed.
        from .sim.coordinator import load_cells

        args.sweep_id = args.resume
        runner = _make_runner(args, force_coordinator=True)
        sweep_dir = runner.cache.root / "sweeps" / args.resume
        cells = load_cells(sweep_dir)
    else:
        if not args.workload:
            print("a workload is required unless --resume is given",
                  file=sys.stderr)
            return 2
        runner = _make_runner(args)
        spec = workload_by_name(args.workload)
        cells = [
            SweepCell(spec, StaticPaging(size), seed=args.seed)
            for size in SWEEP_PAGE_SIZES
        ]
    results = runner.run_cells(cells)

    # The classic Figure 6 table when this is a pure page-size sweep;
    # one generic line per cell otherwise (e.g. resuming a custom sweep).
    static = all(isinstance(c.policy, StaticPaging) for c in cells)
    workloads = {c.workload.abbr for c in cells}
    by_size = {
        c.policy.page_size: r
        for c, r in zip(cells, results)
        if isinstance(c.policy, StaticPaging) and r is not None
    }
    if static and len(workloads) == 1 and 65536 in by_size:
        baseline = by_size[65536]
        print(f"{'size':>8s} {'perf/64KB':>10s} {'remote':>7s}")
        for size in sorted(by_size):
            result = by_size[size]
            print(
                f"{size_label(size):>8s} "
                f"{result.performance / baseline.performance:10.3f} "
                f"{result.remote_ratio:7.3f}"
            )
    else:
        print(f"{'workload':>10s} {'policy':20s} {'perf':>8s} {'remote':>7s}")
        for cell, result in zip(cells, results):
            if result is None:
                continue
            print(
                f"{result.workload:>10s} {result.policy:20s} "
                f"{result.performance:8.4f} {result.remote_ratio:7.3f}"
            )
    if runner.last_sweep_id is not None:
        print(f"[sweep] id: {runner.last_sweep_id} "
              f"(resume with: repro sweep --resume {runner.last_sweep_id})")
    if runner.stats.cells:
        print(runner.summary_line())
    _print_failures(runner)
    return 1 if runner.stats.failures else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .policies import StaticPaging
    from .surrogate import SurrogateConfig

    names = list(args.workload)
    if not names or (len(names) == 1 and names[0].lower() == "all"):
        specs = list(SUITE)
    else:
        specs = [workload_by_name(name) for name in names]
    config = (
        SurrogateConfig(budget=args.budget)
        if args.budget is not None
        else SurrogateConfig()
    )
    runner = _make_runner(args, surrogate=config)
    cells = [
        SweepCell(spec, policy, seed=args.seed)
        for spec in specs
        for policy in _EXPLORE_POLICIES
    ]
    results = runner.run_cells(cells)

    def fmt(result) -> str:
        # ``~`` marks model predictions; exact simulations print bare.
        mark = "~" if getattr(result, "predicted", False) else " "
        return f"{mark}{result.performance:8.4f}"

    print(
        f"{'workload':>10s} {'winner':20s} {'perf':>9s} "
        f"{'best-static':>11s} {'perf':>9s}"
    )
    predicted_any = False
    for spec in specs:
        rows = [
            (cell, result)
            for cell, result in zip(cells, results)
            if cell.workload.abbr == spec.abbr and result is not None
        ]
        if not rows:
            print(f"{spec.abbr:>10s} (no results)")
            continue
        _w_cell, w_result = max(rows, key=lambda cr: cr[1].performance)
        s_cell, s_result = max(
            (
                (cell, result)
                for cell, result in rows
                if isinstance(cell.policy, StaticPaging)
            ),
            key=lambda cr: cr[1].performance,
        )
        predicted_any |= any(
            getattr(result, "predicted", False) for _, result in rows
        )
        print(
            f"{spec.abbr:>10s} {w_result.policy:20s} {fmt(w_result)} "
            f"{size_label(s_cell.policy.page_size):>11s} {fmt(s_result)}"
        )
    if predicted_any:
        print("values marked ~ are surrogate predictions (never cached)")
    if runner.stats.cells:
        print(runner.summary_line())
    _print_failures(runner)
    return 1 if runner.stats.failures else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    module_name = _EXPERIMENTS.get(args.name)
    if module_name is None:
        print(f"unknown experiment {args.name!r}; "
              f"available: {', '.join(_EXPERIMENTS)}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"repro.experiments.{module_name}")
    runner = _make_runner(args)
    result = _run_experiment_module(module, args, runner)
    if args.bars:
        print(render_bars(result))
    else:
        print(result.format())
    if runner.stats.cells:
        print(runner.summary_line())
    _print_failures(runner)
    return 1 if runner.stats.failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    runner = _make_runner(args)
    for key in _REPORT_EXPERIMENTS:
        module = importlib.import_module(
            f"repro.experiments.{_EXPERIMENTS[key]}"
        )
        result = _run_experiment_module(module, args, runner)
        print(result.format())
        print()
    print(runner.summary_line())
    _print_failures(runner)
    return 1 if runner.stats.failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run_lint_command

    return run_lint_command(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CLAP reproduction: simulate MCM GPU page placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show workloads, policies, experiments")

    run_parser = sub.add_parser("run", help="run one workload")
    run_parser.add_argument("workload")
    run_parser.add_argument(
        "--policy", action="append",
        help="policy name (repeatable); default: S-64KB, S-2MB, CLAP",
    )
    run_parser.add_argument("--seed", type=int, default=7)
    _add_telemetry_flags(run_parser)
    _add_engine_flags(run_parser)

    sweep_parser = sub.add_parser(
        "sweep",
        help="Figure 6 page-size sweep (crash-safe and resumable with "
             "--runners / --resume)",
    )
    sweep_parser.add_argument(
        "workload", nargs="?",
        help="workload abbreviation (omit with --resume)",
    )
    sweep_parser.add_argument("--seed", type=int, default=7)
    sweep_parser.add_argument(
        "--resume", default=None, metavar="SWEEP_ID",
        help="resume the named coordinator sweep from its journal: "
             "completed cells are adopted, the rest re-run",
    )
    _add_runner_flags(sweep_parser)

    explore_parser = sub.add_parser(
        "explore",
        help="surrogate-guided design-space exploration: the winning "
             "policy and best static page size per workload under a "
             "bounded exact-simulation budget",
    )
    explore_parser.add_argument(
        "workload", nargs="*",
        help="workload abbreviations (default: the full Table 2 suite)",
    )
    explore_parser.add_argument("--seed", type=int, default=7)
    explore_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="exact-simulation ceiling "
             "(default: 20%% of the deduplicated grid)",
    )
    _add_runner_flags(explore_parser)

    exp_parser = sub.add_parser(
        "experiment", help="regenerate a paper figure/table"
    )
    exp_parser.add_argument("name", help=", ".join(_EXPERIMENTS))
    exp_parser.add_argument("--quick", action="store_true")
    exp_parser.add_argument(
        "--bars", action="store_true", help="render ASCII bars"
    )
    _add_runner_flags(exp_parser)

    report_parser = sub.add_parser(
        "report",
        help="regenerate the sweep experiments "
             f"({', '.join(_REPORT_EXPERIMENTS)}) in one pass",
    )
    report_parser.add_argument("--quick", action="store_true")
    _add_runner_flags(report_parser)

    lint_parser = sub.add_parser(
        "lint",
        help="run the repro-lint simulator-invariant static analysis "
             "(see DESIGN.md section 8)",
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # ``python -m repro --quick --jobs 4`` is shorthand for ``report``.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv.insert(0, "report")
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "engine"):
        # Reject a bad REPRO_ENGINE once, before any cell simulates
        # (argparse already checked ``--engine`` against ENGINES).
        try:
            resolve_engine(args.engine)
        except ValueError as exc:
            parser.error(f"{exc} (from REPRO_ENGINE)")
        # The env flag (not a per-call argument) so sweep worker
        # processes spawned by the parallel runner inherit the choice.
        if args.engine:
            os.environ["REPRO_ENGINE"] = args.engine
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "explore": _cmd_explore,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "lint": _cmd_lint,
    }
    handler = handlers[args.command]
    if getattr(args, "profile", False):
        return _run_profiled(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
