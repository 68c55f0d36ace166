"""RPR010 — exception safety: broad handlers in worker/retry/
coordinator/CLI paths must not swallow failures.

The chaos harness (PR 2) proves sweeps survive injected faults *with
identical results* — but only because every failure is accounted for:
retried, recorded as a :class:`CellFailure`, or raised as a typed
:class:`SimulationError`.  An ``except Exception: pass`` anywhere on
those paths silently starves that accounting (and the coordinator's
journal) of a failure it needed to see.

A broad handler (bare ``except``, ``except Exception``,
``except BaseException``) in a scoped file is compliant when it

* re-raises (any ``raise`` in the handler body), or
* routes into failure accounting — calls a function that transitively
  raises a typed ``SimulationError`` subclass (``self._fail``,
  ``_attempt_failed``, …), resolved through the call graph, or
* carries a justified inline suppression:
  ``# repro-lint: ignore[RPR010] -- <reason>``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core import Finding, Project, register

#: Files whose broad handlers are checked, with the path description
#: used in messages.
SCOPE_FILES = {
    "sim/parallel.py": "the worker/retry path",
    "sim/coordinator.py": "the coordinator path",
    "sim/chaos.py": "the chaos harness",
    "sim/runner.py": "the sweep runner",
    "__main__.py": "the CLI path",
}

_BROAD = frozenset({"Exception", "BaseException"})


def _scope_context(rel: str) -> Optional[str]:
    for suffix, context in SCOPE_FILES.items():
        if rel == suffix or rel.endswith("/" + suffix):
            return context
    return None


@register("RPR010", "exception_safety")
def check_exception_safety(project: Project) -> Iterator[Finding]:
    """Broad ``except`` in worker/retry/coordinator/CLI paths that
    neither re-raises, routes into typed ``SimulationError`` failure
    accounting (call-graph resolved), nor carries a justified inline
    suppression."""
    facts = project.facts()
    resolver = facts.resolver()
    typed_raisers = resolver.may_raise_typed()
    by_rel = {src.rel: src for src in project.sources()}

    for rel in sorted(facts.by_rel):
        context = _scope_context(rel)
        if context is None:
            continue
        src = by_rel.get(rel)
        if src is None:
            continue
        for fn in facts.by_rel[rel]["functions"]:
            for handler in fn["handlers"]:
                broad = handler["bare"] or any(
                    name.split(".")[-1] in _BROAD
                    for name in handler["types"]
                )
                if not broad or handler["has_raise"]:
                    continue
                accounted = False
                for call_name in handler["calls"]:
                    target = resolver.resolve_call(
                        rel, call_name, None, fn.get("cls")
                    )
                    if (
                        target is not None
                        and target.kind == "function"
                        and (target.rel, target.qualname) in typed_raisers
                    ):
                        accounted = True
                        break
                if accounted:
                    continue
                yield Finding(
                    code="RPR010",
                    path=src.path,
                    rel=rel,
                    line=handler["line"],
                    col=handler["col"],
                    message=(
                        f"broad exception handler in {fn['qualname']}() "
                        f"swallows failures in {context}; re-raise, "
                        "convert to a typed SimulationError subclass, or "
                        "add '# repro-lint: ignore[RPR010] -- <reason>'"
                    ),
                )
