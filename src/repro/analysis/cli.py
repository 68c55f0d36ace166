"""The ``python -m repro lint`` subcommand.

Usage::

    python -m repro lint                       # lint the installed package
    python -m repro lint src/repro tests       # explicit scan roots
    python -m repro lint --select RPR001,RPR004
    python -m repro lint --output json         # machine-readable
    python -m repro lint --output github       # CI annotations
    python -m repro lint --write-baseline      # grandfather current findings
    python -m repro lint --list-rules

Exit status is nonzero only for findings *not* absorbed by the baseline
(``lint-baseline.json`` beside the current directory, or ``--baseline
PATH``); grandfathered findings are reported but do not fail the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence

from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)

if TYPE_CHECKING:
    from .core import Finding


def default_scan_root() -> Path:
    """The installed ``repro`` package directory — the live tree."""
    return Path(__file__).resolve().parent.parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="directories/files to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json", "github"),
        default="text",
        help="report format: human text, JSON, or GitHub workflow "
        "annotations (::error problem-matcher lines)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of grandfathered findings (default: "
        f"./{DEFAULT_BASELINE_NAME} when present)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule codes and exit"
    )


def _display_path(finding: Finding) -> str:
    """Path as the user should see it: CWD-relative when possible."""
    try:
        return os.path.relpath(finding.path)
    except ValueError:  # different drive on Windows
        return str(finding.path)


def _emit_text(
    new: Sequence[Finding], old: Sequence[Finding], stream
) -> None:
    for finding in new:
        print(finding.format(_display_path(finding)), file=stream)
    for finding in old:
        print(
            f"{finding.format(_display_path(finding))} [baselined]",
            file=stream,
        )
    total = len(new) + len(old)
    if total == 0:
        print("repro-lint: clean", file=stream)
    else:
        print(
            f"repro-lint: {len(new)} finding(s), {len(old)} baselined",
            file=stream,
        )


def _emit_json(
    new: Sequence[Finding], old: Sequence[Finding], stream
) -> None:
    def encode(finding: Finding, baselined: bool) -> dict:
        return {
            "code": finding.code,
            "path": _display_path(finding),
            "project_path": finding.rel,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
            "baselined": baselined,
        }

    payload = {
        "findings": [encode(f, False) for f in new]
        + [encode(f, True) for f in old],
        "new": len(new),
        "baselined": len(old),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit_github(
    new: Sequence[Finding], old: Sequence[Finding], stream
) -> None:
    """GitHub Actions workflow-command annotations (the built-in
    problem matcher for ``::error`` lines places them on the PR diff)."""
    for finding in new:
        message = finding.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        print(
            f"::error file={_display_path(finding)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title=repro-lint {finding.code}::{message}",
            file=stream,
        )
    for finding in old:
        message = finding.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        print(
            f"::notice file={_display_path(finding)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title=repro-lint {finding.code} (baselined)::{message}",
            file=stream,
        )
    print(
        f"repro-lint: {len(new)} finding(s), {len(old)} baselined",
        file=stream,
    )


def run_lint_command(args: argparse.Namespace) -> int:
    from .core import Project, all_rules, run_lint

    if args.list_rules:
        for code, rule in sorted(all_rules().items()):
            first_line = rule.doc.splitlines()[0] if rule.doc else ""
            print(f"{code} {rule.name}: {first_line}")
        return 0

    select: Optional[List[str]] = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]

    roots = (
        [Path(p) for p in args.paths]
        if args.paths
        else [default_scan_root()]
    )
    findings: List[Finding] = []
    for root in roots:
        if not root.exists():
            print(f"repro-lint: no such path: {root}", file=sys.stderr)
            return 2
        findings.extend(run_lint(Project(root=root.resolve()), select))

    baseline_path: Optional[Path]
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
    else:
        candidate = Path(DEFAULT_BASELINE_NAME)
        baseline_path = candidate if candidate.exists() else None

    if args.write_baseline:
        target = (
            baseline_path
            if baseline_path is not None
            else Path(DEFAULT_BASELINE_NAME)
        )
        write_baseline(findings, target)
        print(
            f"repro-lint: wrote {len(findings)} finding(s) to {target}"
        )
        return 0

    if baseline_path is not None and baseline_path.exists():
        new, old = apply_baseline(findings, load_baseline(baseline_path))
    else:
        new, old = list(findings), []

    emit = {
        "text": _emit_text,
        "json": _emit_json,
        "github": _emit_github,
    }[args.output]
    emit(new, old, sys.stdout)
    return 1 if new else 0
