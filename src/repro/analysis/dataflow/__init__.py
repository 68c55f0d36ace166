"""Project-wide interprocedural dataflow for repro-lint.

Per-file *facts* (imports, classes, functions, call sites with symbolic
taint terms, raw write operations, exception handlers) are extracted
once per file content — keyed by a content hash and cached under the
repro cache dir via :func:`repro.sim.durability.atomic_write` — so a
warm ``repro lint`` run re-analyzes only changed files
(:mod:`.facts`).  On top of the facts sit a module/call-graph resolver
(:mod:`.callgraph`) and a forward taint propagator with declarative
source/sink/sanitizer specs (:mod:`.taint`).  Rules RPR008–RPR010
consume these; the older project-wide rules (RPR001/003/006) run off
the same facts instead of re-parsing every file.
"""

from __future__ import annotations

from .facts import (
    FACTS_VERSION,
    ProjectFacts,
    build_project_facts,
    extract_file_facts,
    facts_cache_dir,
)
from .callgraph import Resolver, module_name_for_rel
from .taint import TaintEngine

__all__ = [
    "FACTS_VERSION",
    "ProjectFacts",
    "Resolver",
    "TaintEngine",
    "build_project_facts",
    "extract_file_facts",
    "facts_cache_dir",
    "module_name_for_rel",
]
