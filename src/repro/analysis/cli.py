"""The ``python -m repro lint`` subcommand.

Usage::

    python -m repro lint                       # lint the installed package
    python -m repro lint src/repro tests       # explicit scan roots
    python -m repro lint --select RPR001,RPR008
    python -m repro lint --output json         # machine-readable
    python -m repro lint --output github       # CI annotations
    python -m repro lint --list-rules

Exit status: 0 when the scanned trees lint clean, 1 when there are
findings, 2 on bad input (a missing path, an unknown rule code or an
empty ``--select``, a file that does not decode or parse).  A run reads
only the trees it scans and writes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

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
        "--list-rules", action="store_true", help="list rule codes and exit"
    )


def _display_path(path: Union[str, Path]) -> str:
    """Path as the user should see it: CWD-relative when possible."""
    try:
        return os.path.relpath(path)
    except ValueError:  # different drive on Windows
        return str(path)


def _emit_text(findings: Sequence[Finding], stream) -> None:
    for finding in findings:
        print(finding.format(_display_path(finding.path)), file=stream)
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=stream)
    else:
        print("repro-lint: clean", file=stream)


def _emit_json(findings: Sequence[Finding], stream) -> None:
    payload = {
        "findings": [
            {
                "code": finding.code,
                "path": _display_path(finding.path),
                "project_path": finding.rel,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
            }
            for finding in findings
        ],
        "new": len(findings),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit_github(findings: Sequence[Finding], stream) -> None:
    """GitHub Actions workflow-command annotations (the built-in
    problem matcher for ``::error`` lines places them on the PR diff)."""
    for finding in findings:
        message = finding.message.replace("%", "%25").replace(
            "\n", "%0A"
        )
        print(
            f"::error file={_display_path(finding.path)},"
            f"line={finding.line},col={finding.col + 1},"
            f"title=repro-lint {finding.code}::{message}",
            file=stream,
        )
    print(f"repro-lint: {len(findings)} finding(s)", file=stream)


def run_lint_command(args: argparse.Namespace) -> int:
    from .core import Project, all_rules, run_lint

    if args.list_rules:
        for code, rule in sorted(all_rules().items()):
            first_line = rule.doc.splitlines()[0] if rule.doc else ""
            print(f"{code} {rule.name}: {first_line}")
        return 0

    select: Optional[List[str]] = None
    if args.select is not None:
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
        try:
            findings.extend(run_lint(Project(root=root.resolve()), select))
        except SyntaxError as exc:
            print(
                f"repro-lint: cannot lint {_display_path(exc.filename)}:"
                f"{exc.lineno}: {exc.msg}",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:  # an empty or unknown --select
            print(f"repro-lint: {exc}", file=sys.stderr)
            return 2

    emit = {
        "text": _emit_text,
        "json": _emit_json,
        "github": _emit_github,
    }[args.output]
    emit(findings, sys.stdout)
    return 1 if findings else 0
