"""RPR009 — durability protocol: lease and journal state may only be
mutated through the blessed crash-safe helpers.

The coordinator's crash-safety argument (PR 7) rests on a handful of
primitives: lease files are created with ``O_CREAT|O_EXCL``
(``durability.create_exclusive``), stolen by atomic rename-over and
renewed only by their holder
(``_acquire_lease``/``_write_lease``/``_renew_lease``/``_release_lease``),
journal
records go through the CRC-framed single-``write`` appender
(``Journal.append``; tail truncation belongs to ``Journal.truncate``,
which ``Journal.recover`` and the coordinator's tailing loop call), and
trace-store repair is ``DurableDir.quarantine``'s rename.  Any other
code path writing those files — directly, or by handing a lease/journal
path to a function that writes its path argument (``atomic_write``
included) — reintroduces exactly the torn-write/race windows the
helpers exist to close.

This overlaps RPR006 (durable writes) but does not subsume it.  RPR006
bans the write-mode ``open``, ``write_bytes``/``write_text`` and stream
serializers in seven durable-state modules, whatever they write.  This
rule checks only the two protocol files below, and only writes whose
target is lease, journal or trace state.  There it also sees the
low-level calls RPR006 allows (``os.replace``, ``os.unlink``,
``os.open``, …) and, through the call graph, a protocol path handed to
a function that writes it.  A ``write_text`` of a lease file in
``sim/coordinator.py`` trips both rules.

Two checks over the protocol files (``sim/coordinator.py``,
``trace/store.py``; ``sim/durability.py`` and ``sim/journal.py`` are
the blessed implementation layer and exempt):

* a raw write op (``open('w')``, ``write_text``, ``os.replace``,
  ``os.open``, …) whose target is lease/journal/trace state, outside a
  blessed helper;
* a call from a non-blessed function that passes a lease- or
  journal-derived path into any function that (transitively) writes
  its path parameter — resolved through the call graph's
  ``writes_through_params`` fixpoint.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..core import Finding, Project, register

#: Files whose writes are protocol-checked.
PROTOCOL_FILES = ("sim/coordinator.py", "trace/store.py")

#: The blessed implementation layer: these modules *are* the helpers.
BLESSED_MODULES = ("sim/durability.py", "sim/journal.py")

#: Qualnames allowed to touch protocol state, per protocol file.  The
#: trace store has none: it writes and quarantines archives through
#: :mod:`repro.sim.durability`.
BLESSED_FUNCTIONS = {
    "sim/coordinator.py": frozenset(
        {"_write_lease", "_acquire_lease", "_renew_lease", "_release_lease"}
    ),
}

#: Callees that are themselves the sanctioned route (calling them with
#: a lease path is the protocol, not a bypass).
BLESSED_CALLEES = frozenset(
    {
        "_write_lease",
        "_acquire_lease",
        "_renew_lease",
        "_release_lease",
        "Journal.append",
        "Journal.recover",
        "Journal.truncate",
        "Journal.read_from",
        "Journal.replay",
    }
)

_CATEGORY_REMEDY = {
    "lease": (
        "lease files may only change through the O_CREAT|O_EXCL create "
        "+ rename-arbitration helpers (_acquire_lease/_write_lease/"
        "_renew_lease/_release_lease)"
    ),
    "journal": (
        "journal records may only be appended through the CRC-framed "
        "Journal.append (tail truncation belongs to Journal.truncate)"
    ),
    "trace": (
        "trace archives may only be written through the durability "
        "module (atomic_write) and repaired through DurableDir.quarantine"
    ),
}


def _is_protocol_rel(rel: str, files: tuple) -> Optional[str]:
    for suffix in files:
        if rel == suffix or rel.endswith("/" + suffix):
            return suffix
    return None


def _write_category(rel_suffix: str, hint: str) -> Optional[str]:
    lowered = hint.lower()
    if "lease" in lowered:
        return "lease"
    if "journal" in lowered:
        return "journal"
    if rel_suffix == "trace/store.py":
        return "trace"
    return None


def _call_category(hints: list) -> Optional[str]:
    for hint in hints:
        lowered = hint.lower()
        if "lease" in lowered:
            return "lease"
        if "journal" in lowered:
            return "journal"
    return None


@register("RPR009", "durability_protocol")
def check_durability_protocol(project: Project) -> Iterator[Finding]:
    """Lease/journal/trace-store state mutated outside the blessed
    crash-safe helpers — directly or by passing a protocol path into a
    function that writes its path argument (call-graph reach)."""
    facts = project.facts()
    resolver = facts.resolver()
    writes_params = resolver.writes_through_params()
    by_rel: Dict[str, object] = {
        src.rel: src for src in project.sources()
    }

    for rel in sorted(facts.by_rel):
        suffix = _is_protocol_rel(rel, PROTOCOL_FILES)
        if suffix is None or _is_protocol_rel(rel, BLESSED_MODULES):
            continue
        src = by_rel.get(rel)
        if src is None:
            continue
        blessed = BLESSED_FUNCTIONS.get(suffix, frozenset())
        for fn in facts.by_rel[rel]["functions"]:
            if fn["qualname"] in blessed:
                continue
            for write in fn["writes"]:
                category = _write_category(suffix, write["hint"])
                if category is None:
                    continue
                yield Finding(
                    code="RPR009",
                    path=src.path,  # type: ignore[attr-defined]
                    rel=rel,
                    line=write["line"],
                    col=write["col"],
                    message=(
                        f"raw {write['op']} write touches {category} "
                        f"state in {fn['qualname']}(); "
                        f"{_CATEGORY_REMEDY[category]}"
                    ),
                )
            for call in fn["calls"]:
                target = resolver.resolve_call(
                    rel, call["name"], call.get("recv_ctor"),
                    fn.get("cls"),
                )
                if (
                    target is None
                    or target.kind != "function"
                    or target.qualname in BLESSED_CALLEES
                    or (target.rel, target.qualname) not in writes_params
                ):
                    continue
                category = _call_category(call["arg_hints"])
                if category is None:
                    continue
                short = str(call["name"]).rsplit(".", 1)[-1]
                yield Finding(
                    code="RPR009",
                    path=src.path,  # type: ignore[attr-defined]
                    rel=rel,
                    line=call["line"],
                    col=call["col"],
                    message=(
                        f"{fn['qualname']}() passes a {category} path "
                        f"into {short}(), which writes it directly — "
                        "bypassing the blessed helpers risks torn or "
                        f"racy durable state; {_CATEGORY_REMEDY[category]}"
                    ),
                )
