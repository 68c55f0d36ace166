"""repro-lint: simulator-invariant static analysis.

An AST-based checker framework encoding the invariants this codebase
has paid for in bugs (see DESIGN.md section 8):

* :mod:`repro.analysis.core` — rule registry, project/file model,
  inline suppression, the ``run_lint`` driver;
* :mod:`repro.analysis.baseline` — grandfathered-finding baseline;
* :mod:`repro.analysis.rules` — the repo-specific rules (``RPR001``,
  ``RPR003``, ``RPR004``, ``RPR006`` and ``RPR008``…``RPR010``);
* :mod:`repro.analysis.cli` — the ``python -m repro lint`` subcommand.
"""

from .baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .cli import default_scan_root

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "Project",
    "all_rules",
    "apply_baseline",
    "default_scan_root",
    "load_baseline",
    "run_lint",
    "write_baseline",
]

#: Loaded on first use, so the CLI can build its ``lint`` parser without
#: importing the rule framework.
_CORE_NAMES = ("Finding", "Project", "all_rules", "run_lint")


def __getattr__(name: str):
    if name in _CORE_NAMES:
        from . import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
