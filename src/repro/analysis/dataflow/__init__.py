"""Project-wide interprocedural dataflow for repro-lint.

Per-file *facts* (imports, classes, functions, call sites with symbolic
taint terms, raw write operations, exception handlers) are extracted
from every scanned file on every run (:mod:`.facts`).  On top of the
facts sit a module/call-graph resolver (:mod:`.callgraph`) and a
forward taint propagator with declarative source/sink/sanitizer specs
(:mod:`.taint`).  Rules RPR008–RPR010 consume these; the older
project-wide rules (RPR001/003/006) run off the same facts instead of
re-parsing every file.
"""

from __future__ import annotations

from .facts import (
    ProjectFacts,
    build_project_facts,
    extract_file_facts,
)
from .callgraph import Resolver, module_name_for_rel
from .taint import TaintEngine

__all__ = [
    "ProjectFacts",
    "Resolver",
    "TaintEngine",
    "build_project_facts",
    "extract_file_facts",
    "module_name_for_rel",
]
