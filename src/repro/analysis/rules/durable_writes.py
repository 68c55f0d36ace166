"""RPR006 — durable writes: crash-safety-critical files write atomically.

The PR 7 bug class: ``ResultCache.put`` wrote entries with a bare
``open(path, "w")`` — a SIGKILL (or full disk) mid-write left a torn
entry that later parsed as garbage or, worse, as a truncated-but-valid
JSON prefix.  The durability layer (:mod:`repro.sim.durability`) exists
so that cannot happen: ``atomic_write()`` stages to a temp file, fsyncs
and renames, and framed entries carry a CRC verified on read.

The guarantee only holds if every durable artifact actually routes
through it, so this rule bans the direct write APIs inside the modules
that persist sweep state (result cache, journal, coordinator,
telemetry):

* builtin/``Path.open`` with a write-capable mode (``w``/``a``/``x``/
  ``+``);
* ``Path.write_bytes`` / ``Path.write_text``;
* stream serializers that imply an open writable handle — ``json.dump``,
  ``pickle.dump``, ``np.save``/``savez``/``savetxt``.

``os.open`` with explicit flags stays allowed: it is how the journal's
single-``write`` ``O_APPEND`` frames and ``atomic_write`` itself are
built, and passing it a string mode is impossible.  Reads (default-mode
``open``, ``"rb"``, ``read_bytes``) are untouched.  A justified
exception takes an inline ``# repro-lint: ignore[RPR006]``.

Write sites come from the dataflow facts (the same per-file write
records RPR009 categorizes), so this rule walks no AST itself.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ..core import Finding, Project, SourceFile, register

#: Modules that persist sweep state and therefore must write atomically.
#: ``sim/durability.py`` itself is deliberately absent: it implements
#: the sanctioned mechanism (exclusive temp file + os.write + rename).
DURABLE_FILES = (
    "sim/parallel.py",
    "sim/journal.py",
    "sim/coordinator.py",
    "sim/telemetry.py",
    "trace/io.py",
    "trace/store.py",
    "__main__.py",
)

#: Stream/array serializers that write through an open handle or path.
_DUMP_FUNCS = frozenset(
    {
        "json.dump",
        "pickle.dump",
        "np.save",
        "np.savez",
        "np.savez_compressed",
        "np.savetxt",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.savetxt",
    }
)


def _finding(
    src: SourceFile, write: Dict[str, Any], message: str
) -> Finding:
    return Finding(
        code="RPR006",
        path=src.path,
        rel=src.rel,
        line=int(write["line"]),
        col=int(write["col"]),
        message=message,
    )


def _message(write: Dict[str, Any]) -> Optional[str]:
    op = write["op"]
    if op == "open":
        mode = write["mode"]
        return (
            f"direct open(..., {mode!r}) in durable-state "
            "module: a crash mid-write leaves a torn file; "
            "route the write through "
            "repro.sim.durability.atomic_write()"
        )
    if op in ("write_bytes", "write_text"):
        return (
            f"{op}() in durable-state module is not "
            "crash-safe (no temp file, no fsync, no rename); "
            "route the write through "
            "repro.sim.durability.atomic_write()"
        )
    if op in _DUMP_FUNCS:
        return (
            f"{op}() streams into an open handle and cannot "
            "be torn-write-proof; serialize to bytes and "
            "persist them with "
            "repro.sim.durability.atomic_write()"
        )
    # os.open/os.write/os.replace/unlink/...: the sanctioned low-level
    # escape hatches (RPR009 polices *which* helpers may use them).
    return None


@register("RPR006", "durable-writes")
def check_durable_writes(project: Project) -> Iterator[Finding]:
    """Durable-state modules (result cache, journal, coordinator,
    telemetry) must not write files directly — ``open(..., "w")``,
    ``write_bytes``/``write_text``, ``json.dump``/``pickle.dump``/
    ``np.save`` all bypass the torn-write protection of
    ``repro.sim.durability.atomic_write()`` (PR 7 bug class)."""
    facts = project.facts()
    for rel in DURABLE_FILES:
        src = project.source(rel)
        if src is None:
            continue
        file_facts = facts.find(rel)
        if file_facts is None:
            continue
        for fn in file_facts["functions"]:
            for write in fn["writes"]:
                message = _message(write)
                if message is not None:
                    yield _finding(src, write, message)