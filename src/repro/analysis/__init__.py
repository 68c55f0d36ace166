"""repro-lint: simulator-invariant static analysis.

An AST-based checker framework encoding the invariants this codebase
has paid for in bugs (see DESIGN.md section 8):

* :mod:`repro.analysis.core` — rule registry, project/file model,
  inline suppression, the ``run_lint`` driver;
* :mod:`repro.analysis.rules` — the repo-specific rules (``RPR001``,
  ``RPR003``, ``RPR006`` and ``RPR008``…``RPR010``);
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` subcommand.

A lint run reads only the tree it scans and writes nothing.
"""

from .cli import default_scan_root

__all__ = [
    "Finding",
    "Project",
    "all_rules",
    "default_scan_root",
    "run_lint",
]

#: Loaded on first use, so the CLI can build its ``lint`` parser without
#: importing the rule framework.
_CORE_NAMES = ("Finding", "Project", "all_rules", "run_lint")


def __getattr__(name: str):
    if name in _CORE_NAMES:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
