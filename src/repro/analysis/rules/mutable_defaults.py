"""RPR003 — shared mutable defaults, beyond ruff's scope.

The PR 3 bug class: ``TimingParams()`` evaluated once as a default
argument, so every engine invocation shared (and mutated) one instance
— a correctness bug ruff's ``B006``/``B008`` family does not catch
because ``TimingParams`` is a project class, not a known mutable
builtin.

This rule resolves project classes across the whole file set first:
classes decorated ``@dataclass(frozen=True)`` and ``Enum`` subclasses
are immutable, any other project-class constructor in a default is a
shared mutable instance.  Checked sites:

* function/method parameter defaults: mutable literals
  (``[]``/``{}``/``{...}``/comprehensions), mutable builtin
  constructors, and calls to non-frozen CamelCase constructors — the
  deterministic fix is a ``None`` default resolved in the body;
* ``@dataclass`` field defaults: any constructor call that is not
  ``field(...)`` and not known-immutable must use
  ``field(default_factory=...)``.

Defaults that merely *rebind an existing object* (``cache=cache`` in
the batch engine's hot closures) are Name nodes, not constructor
calls, and are deliberately not flagged.  Default-site descriptors and
the project class table both come from the dataflow facts, so this rule
walks no AST itself.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from ..core import Finding, Project, register

_MUTABLE_BUILTIN_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "defaultdict",
        "collections.OrderedDict",
        "OrderedDict",
        "collections.Counter",
        "Counter",
        "collections.deque",
        "deque",
        "array.array",
    }
)

_IMMUTABLE_BUILTIN_CALLS = frozenset(
    {
        "frozenset",
        "tuple",
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "complex",
        "range",
        "object",
        "Fraction",
        "Decimal",
        "timedelta",
        "datetime.timedelta",
        "Path",
        "pathlib.Path",
    }
)

_ENUM_BASES = frozenset(
    {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag", "enum.Enum",
     "enum.IntEnum", "enum.StrEnum", "enum.Flag", "enum.IntFlag"}
)


def _immutable_project_classes(project: Project) -> Set[str]:
    """Names of project classes whose instances are immutable: frozen
    dataclasses and Enum subclasses (including subclasses of those)."""
    frozen: Set[str] = set()
    bases: Dict[str, list] = {}
    for _rel, cls in project.facts().iter_classes():
        bases[cls["name"]] = list(cls["bases"])
        if cls["frozen"] or any(b in _ENUM_BASES for b in cls["bases"]):
            frozen.add(cls["name"])
    # Propagate through single-level inheritance chains until fixpoint
    # (an Enum subclass of a project Enum is still immutable).
    changed = True
    while changed:
        changed = False
        for name, base_names in bases.items():
            if name not in frozen and any(b in frozen for b in base_names):
                frozen.add(name)
                changed = True
    return frozen


def _reason(default: Dict[str, object], immutable: Set[str]) -> Optional[str]:
    """A human description if the recorded default is shared-mutable."""
    shape = default["shape"]
    if shape == "literal":
        return "mutable literal"
    if shape == "comprehension":
        return "mutable comprehension"
    name = str(default["call_name"] or "")
    if not name:
        return None
    if name in _MUTABLE_BUILTIN_CALLS:
        return f"{name}() call"
    short = name.split(".")[-1]
    if name in _IMMUTABLE_BUILTIN_CALLS or short in immutable:
        return None
    if short[:1].isupper() and not short.isupper():
        # CamelCase constructor of a class not known to be frozen:
        # the TimingParams() bug shape.
        return f"{name}() instance"
    return None


@register("RPR003", "mutable-defaults")
def check_mutable_defaults(project: Project) -> Iterator[Finding]:
    """Function parameters and dataclass fields defaulting to shared
    mutable instances, including project-class constructors ruff cannot
    know about (PR 3 bug class)."""
    immutable = _immutable_project_classes(project)
    facts = project.facts()
    by_rel = {src.rel: src for src in project.sources()}
    for rel in sorted(facts.by_rel):
        src = by_rel.get(rel)
        if src is None:
            continue
        for default in facts.by_rel[rel]["defaults"]:
            reason = _reason(default, immutable)
            if reason is None:
                continue
            if default["where"] == "param":
                message = (
                    f"default for parameter {default['arg']!r} of "
                    f"{default['owner']}() is a {reason}, evaluated "
                    "once and shared across calls (the PR 3 "
                    "TimingParams bug); default to None and construct "
                    "in the body"
                )
            else:
                message = (
                    f"dataclass field {default['arg']!r} of "
                    f"{default['owner']} defaults to a {reason}, "
                    "shared by every instance; use "
                    "field(default_factory=...)"
                )
            yield Finding(
                code="RPR003",
                path=src.path,
                rel=rel,
                line=int(default["line"]),
                col=int(default["col"]),
                message=message,
            )
