"""Module/call-graph resolution over per-file facts.

The :class:`Resolver` maps the import structure of a :class:`Project`
(absolute and relative imports, module aliases, ``from`` symbols) and
answers "which function/class does this call site reach" queries —
including ``self.method`` dispatch through base classes and
constructor-tracked receivers (``j = Journal(...); j.append(...)``).
On top of call resolution it derives two project-wide fixpoints used by
the interprocedural rules:

* :meth:`Resolver.may_raise_typed` — functions that (transitively)
  raise a typed :class:`~repro.errors.SimulationError` subclass, so an
  exception handler that routes into one is not "swallowing" (RPR010);
* :meth:`Resolver.writes_through_params` — functions that perform a raw
  file write to a path derived from one of their parameters, so a call
  passing a lease/journal path into one is a durable write in disguise
  (RPR009).
"""

from __future__ import annotations

import re
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

Facts = Dict[str, Any]

_TOKEN_RE = re.compile(r"\w+")


def module_name_for_rel(rel: str) -> str:
    """``sim/parallel.py`` -> ``sim.parallel``; ``__init__`` collapses
    to its package (the project root package maps to ``""``)."""
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Target(NamedTuple):
    """A resolved call target inside the project."""

    rel: str
    kind: str  # "function" | "class"
    qualname: str
    record: Dict[str, Any]


class Resolver:
    """Import + call resolution over a ``{rel: facts}`` map."""

    def __init__(self, by_rel: Dict[str, Facts]) -> None:
        self.by_rel = by_rel
        self.mod_to_rel: Dict[str, str] = {}
        for rel in sorted(by_rel):
            self.mod_to_rel.setdefault(module_name_for_rel(rel), rel)

        # per-file lookup tables
        self._functions: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self._methods: Dict[Tuple[str, str, str], Dict[str, Any]] = {}
        self._classes: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.class_by_short: Dict[str, Target] = {}
        for rel in sorted(by_rel):
            facts = by_rel[rel]
            for fn in facts["functions"]:
                if fn["cls"] is None:
                    self._functions.setdefault((rel, fn["name"]), fn)
                else:
                    self._methods.setdefault(
                        (rel, fn["cls"], fn["name"]), fn
                    )
            for cls in facts["classes"]:
                self._classes.setdefault((rel, cls["qualname"]), cls)
                self.class_by_short.setdefault(
                    cls["name"],
                    Target(rel, "class", cls["qualname"], cls),
                )

        # import maps: rel -> {local name: ...}
        self.symbol_imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self.module_imports: Dict[str, Dict[str, str]] = {}
        for rel in sorted(by_rel):
            self._index_imports(rel, by_rel[rel]["imports"])

        self._may_raise_typed: Optional[FrozenSet[Tuple[str, str]]] = None
        self._writes_params: Optional[FrozenSet[Tuple[str, str]]] = None
        self._resolve_cache: Dict[
            Tuple[str, str, Optional[str], Optional[str]], Optional[Target]
        ] = {}

    # --- import resolution ---

    def _index_imports(
        self, rel: str, entries: List[Dict[str, Any]]
    ) -> None:
        symbols: Dict[str, Tuple[str, str]] = {}
        modules: Dict[str, str] = {}
        for entry in entries:
            if entry["kind"] == "import":
                modules[entry["asname"]] = self._normalize_module(
                    entry["module"]
                )
                continue
            base = self._relative_base(rel, entry["level"])
            module = entry["module"]
            if entry["level"] > 0:
                target = ".".join(
                    p for p in (base + module.split(".")) if p
                )
            else:
                target = self._normalize_module(module)
            name = entry["name"]
            if name == "*":
                continue
            submodule = f"{target}.{name}" if target else name
            if submodule in self.mod_to_rel:
                modules[entry["asname"]] = submodule
            else:
                symbols[entry["asname"]] = (target, name)
        self.symbol_imports[rel] = symbols
        self.module_imports[rel] = modules

    def _relative_base(self, rel: str, level: int) -> List[str]:
        if level <= 0:
            return []
        parts = module_name_for_rel(rel).split(".") if rel else []
        parts = [p for p in parts if p]
        drop = level - 1 if rel.endswith("__init__.py") else level
        return parts[: len(parts) - drop] if drop else parts

    def _normalize_module(self, module: str) -> str:
        """Strip leading package components until the name is known
        (``repro.sim.durability`` -> ``sim.durability`` when the project
        root is the ``repro`` package itself)."""
        candidate = module
        while candidate:
            if candidate in self.mod_to_rel:
                return candidate
            if "." not in candidate:
                break
            candidate = candidate.split(".", 1)[1]
        return module

    # --- call resolution ---

    def _function(self, rel: str, name: str) -> Optional[Target]:
        fn = self._functions.get((rel, name))
        if fn is not None:
            return Target(rel, "function", fn["qualname"], fn)
        return None

    def _class(self, rel: str, name: str) -> Optional[Target]:
        cls = self._classes.get((rel, name))
        if cls is not None:
            return Target(rel, "class", cls["qualname"], cls)
        return None

    def resolve_class(self, rel: str, name: str) -> Optional[Target]:
        """A class reachable from ``rel`` under local name ``name``."""
        parts = name.split(".")
        if len(parts) == 1:
            target = self._class(rel, parts[0])
            if target:
                return target
            sym = self.symbol_imports.get(rel, {}).get(parts[0])
            if sym:
                mod_rel = self.mod_to_rel.get(sym[0])
                if mod_rel:
                    target = self._class(mod_rel, sym[1])
                    if target:
                        return target
            return self.class_by_short.get(parts[0])
        alias = self.module_imports.get(rel, {}).get(parts[0])
        if alias and len(parts) == 2:
            mod_rel = self.mod_to_rel.get(alias)
            if mod_rel:
                return self._class(mod_rel, parts[1])
        return None

    def _method_in_class(
        self,
        rel: str,
        cls_qualname: str,
        method: str,
        seen: Optional[Set[Tuple[str, str]]] = None,
    ) -> Optional[Target]:
        if seen is None:
            seen = set()
        key = (rel, cls_qualname)
        if key in seen:
            return None
        seen.add(key)
        cls = self._classes.get(key)
        if cls is None:
            return None
        fn = self._methods.get((rel, cls_qualname, method))
        if fn is not None:
            return Target(rel, "function", fn["qualname"], fn)
        for base in cls["bases_full"]:
            base_target = self.resolve_class(rel, base)
            if base_target is None:
                continue
            found = self._method_in_class(
                base_target.rel, base_target.qualname, method, seen
            )
            if found is not None:
                return found
        return None

    def resolve_call(
        self,
        rel: str,
        name: str,
        recv_ctor: Optional[str] = None,
        cls_qualname: Optional[str] = None,
    ) -> Optional[Target]:
        """Resolve a call site in ``rel`` to a project function/class.

        ``recv_ctor`` is the tracked constructor of the receiver (for
        ``x = Journal(...); x.append(...)``); ``cls_qualname`` is the
        enclosing class for ``self.``/``cls.`` dispatch.  Unknown calls
        resolve to ``None`` — consumers treat that conservatively.

        Resolution is a pure function of the four arguments over the
        frozen indices, so results are memoized: the taint engine asks
        about the same call sites once per fixpoint round.
        """
        if not name:
            return None
        key = (rel, name, recv_ctor, cls_qualname)
        if key in self._resolve_cache:
            return self._resolve_cache[key]
        target = self._resolve_call_uncached(
            rel, name, recv_ctor, cls_qualname
        )
        self._resolve_cache[key] = target
        return target

    def _resolve_call_uncached(
        self,
        rel: str,
        name: str,
        recv_ctor: Optional[str],
        cls_qualname: Optional[str],
    ) -> Optional[Target]:
        if name.startswith("."):
            if recv_ctor:
                return self._method_on_short(recv_ctor, name[1:])
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls") and cls_qualname is not None:
            if len(parts) == 2:
                return self._method_in_class(rel, cls_qualname, parts[1])
            return None
        if len(parts) == 1:
            short = parts[0]
            target = self._function(rel, short)
            if target:
                return target
            sym = self.symbol_imports.get(rel, {}).get(short)
            if sym:
                mod_rel = self.mod_to_rel.get(sym[0])
                if mod_rel:
                    target = self._function(mod_rel, sym[1])
                    if target:
                        return target
                    target = self._class(mod_rel, sym[1])
                    if target:
                        return target
            target = self._class(rel, short)
            if target:
                return target
            if short[:1].isupper():
                return self.class_by_short.get(short)
            return None
        alias = self.module_imports.get(rel, {}).get(parts[0])
        if alias is not None and len(parts) == 2:
            mod_rel = self.mod_to_rel.get(alias)
            if mod_rel:
                return self._function(mod_rel, parts[1]) or self._class(
                    mod_rel, parts[1]
                )
            return None
        if recv_ctor is not None and len(parts) == 2:
            return self._method_on_short(recv_ctor, parts[1])
        return None

    def _method_on_short(
        self, class_short: str, method: str
    ) -> Optional[Target]:
        cls = self.class_by_short.get(class_short)
        if cls is None:
            return None
        return self._method_in_class(cls.rel, cls.qualname, method)

    # --- derived fixpoints ---

    def typed_error_shorts(self) -> FrozenSet[str]:
        """Class shorts transitively deriving from SimulationError."""
        typed: Set[str] = {"SimulationError"}
        changed = True
        while changed:
            changed = False
            for rel in sorted(self.by_rel):
                for cls in self.by_rel[rel]["classes"]:
                    if cls["name"] in typed:
                        continue
                    if any(base in typed for base in cls["bases"]):
                        typed.add(cls["name"])
                        changed = True
        return frozenset(typed)

    def may_raise_typed(self) -> FrozenSet[Tuple[str, str]]:
        """``(rel, qualname)`` of functions that raise (or transitively
        call something that raises) a typed SimulationError subclass."""
        if self._may_raise_typed is not None:
            return self._may_raise_typed
        typed = self.typed_error_shorts()
        qualifying: Set[Tuple[str, str]] = set()
        for rel in sorted(self.by_rel):
            for fn in self.by_rel[rel]["functions"]:
                for raised in fn["raises"]:
                    if raised.split(".")[-1] in typed:
                        qualifying.add((rel, fn["qualname"]))
                        break
        changed = True
        while changed:
            changed = False
            for rel in sorted(self.by_rel):
                for fn in self.by_rel[rel]["functions"]:
                    key = (rel, fn["qualname"])
                    if key in qualifying:
                        continue
                    for call in fn["calls"]:
                        target = self.resolve_call(
                            rel,
                            call["name"],
                            call.get("recv_ctor"),
                            fn.get("cls"),
                        )
                        if (
                            target is not None
                            and target.kind == "function"
                            and (target.rel, target.qualname) in qualifying
                        ):
                            qualifying.add(key)
                            changed = True
                            break
        self._may_raise_typed = frozenset(qualifying)
        return self._may_raise_typed

    def writes_through_params(self) -> FrozenSet[Tuple[str, str]]:
        """``(rel, qualname)`` of functions whose raw file writes hit a
        path derived from one of their parameters — directly, or by
        forwarding the parameter to another such function."""
        if self._writes_params is not None:
            return self._writes_params
        result: Set[Tuple[str, str]] = set()
        for rel in sorted(self.by_rel):
            for fn in self.by_rel[rel]["functions"]:
                params = set(fn["params"]) - {"self", "cls"}
                if not params:
                    continue
                for write in fn["writes"]:
                    if params & set(_TOKEN_RE.findall(write["hint"])):
                        result.add((rel, fn["qualname"]))
                        break
        changed = True
        while changed:
            changed = False
            for rel in sorted(self.by_rel):
                for fn in self.by_rel[rel]["functions"]:
                    key = (rel, fn["qualname"])
                    if key in result:
                        continue
                    params = set(fn["params"]) - {"self", "cls"}
                    if not params:
                        continue
                    for call in fn["calls"]:
                        target = self.resolve_call(
                            rel,
                            call["name"],
                            call.get("recv_ctor"),
                            fn.get("cls"),
                        )
                        if (
                            target is None
                            or target.kind != "function"
                            or (target.rel, target.qualname) not in result
                        ):
                            continue
                        forwarded = any(
                            params & set(_TOKEN_RE.findall(hint))
                            for hint in call["arg_hints"]
                        )
                        if forwarded:
                            result.add(key)
                            changed = True
                            break
        self._writes_params = frozenset(result)
        return self._writes_params
