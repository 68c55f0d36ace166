"""Core of repro-lint: rules, findings, projects, suppression.

A *rule* is a function taking a :class:`Project` and yielding
:class:`Finding` objects; rules register themselves under a stable code
(``RPR001``…) via :func:`register`.  Rules receive the whole project —
not one file at a time — because the invariants worth checking here are
cross-file (engine parity, policy contracts), and single-file rules
simply iterate :meth:`Project.sources`.

Findings can be silenced two ways:

* an inline ``# repro-lint: ignore[RPR001]`` (or a bare
  ``# repro-lint: ignore``) comment on the flagged line, for findings
  that are individually justified in place;
* the baseline file (:mod:`repro.analysis.baseline`), for grandfathered
  findings that should not fail CI but should not silently grow either.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .dataflow.facts import ProjectFacts

#: Directory names never descended into when discovering sources.  Keeps
#: ``__pycache__`` droppings, VCS metadata and tool caches out of every
#: repo-wide scan (compiled ``.pyc`` artifacts are excluded by the
#: ``*.py`` suffix filter as well).
EXCLUDED_DIR_NAMES = frozenset(
    {
        "__pycache__",
        ".git",
        ".hg",
        ".venv",
        "venv",
        ".mypy_cache",
        ".ruff_cache",
        ".pytest_cache",
        "build",
        "dist",
        "node_modules",
        ".eggs",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    path: Path  #: absolute path of the offending file
    rel: str  #: project-relative posix path (stable across machines)
    line: int
    col: int
    message: str

    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-number-independent identity used by the baseline.

        Moving code around must not invalidate a grandfathered finding,
        so the fingerprint is (code, file, message) — messages name the
        offending symbol, which keeps them stable under reformatting.
        """
        return (self.code, self.rel, self.message)

    def format(self, display_path: Optional[str] = None) -> str:
        where = display_path if display_path is not None else self.rel
        return f"{where}:{self.line}:{self.col}: {self.code} {self.message}"


class SourceFile:
    """One parsed Python source file plus its suppression comments."""

    def __init__(self, path: Path, rel: str) -> None:
        self.path = path
        self.rel = rel
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self._tree: Optional[ast.Module] = None
        self._nodes: Optional[List[ast.AST]] = None
        self._suppressions: Optional[
            Dict[int, Optional[FrozenSet[str]]]
        ] = None

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree

    def nodes(self) -> List[ast.AST]:
        """``ast.walk(self.tree)``, flattened once and memoized.

        Several whole-tree rules sweep the same few files; sharing one
        walk keeps the warm (facts-cached) lint path cheap.
        """
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def _suppression_map(self) -> Dict[int, Optional[FrozenSet[str]]]:
        """line -> suppressed codes (``None`` = all codes) for the file."""
        if self._suppressions is None:
            found: Dict[int, Optional[FrozenSet[str]]] = {}
            for lineno, line in enumerate(self.lines, start=1):
                if "repro-lint" not in line:
                    continue
                match = _SUPPRESS_RE.search(line)
                if not match:
                    continue
                codes = match.group("codes")
                if codes is None:
                    found[lineno] = None
                else:
                    found[lineno] = frozenset(
                        c.strip() for c in codes.split(",") if c.strip()
                    )
            self._suppressions = found
        return self._suppressions

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self._suppression_map().get(line, _NOT_SUPPRESSED)
        if codes is _NOT_SUPPRESSED:
            return False
        return codes is None or code in codes


#: Sentinel distinguishing "no comment on this line" from "bare ignore".
_NOT_SUPPRESSED: FrozenSet[str] = frozenset({"\0not-suppressed"})


@dataclass
class Project:
    """The file set one lint run analyzes.

    ``root`` anchors the relative paths rules match against (e.g. the
    engine-parity rule looks for ``sim/pipeline.py``); for the live tree
    it is the installed ``repro`` package directory, for test fixtures a
    miniature directory mimicking that layout.
    """

    root: Path
    _sources: Optional[List[SourceFile]] = field(default=None, repr=False)
    _facts: Optional["ProjectFacts"] = field(default=None, repr=False)

    def facts(self) -> "ProjectFacts":
        """The project's dataflow facts (built once, cached for the
        run; per-file records come from the incremental on-disk cache
        so a warm build parses only changed files)."""
        if self._facts is None:
            from .dataflow.facts import build_project_facts

            self._facts = build_project_facts(self)
        return self._facts

    def sources(self) -> List[SourceFile]:
        if self._sources is None:
            discovered: List[SourceFile] = []
            for path in sorted(self._walk(self.root)):
                rel = path.relative_to(self.root).as_posix()
                discovered.append(SourceFile(path, rel))
            self._sources = discovered
        return self._sources

    @staticmethod
    def _walk(root: Path) -> Iterator[Path]:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            return
        for entry in root.iterdir():
            if entry.is_dir():
                if entry.name in EXCLUDED_DIR_NAMES:
                    continue
                yield from Project._walk(entry)
            elif entry.suffix == ".py":
                yield entry

    def source(self, rel_suffix: str) -> Optional[SourceFile]:
        """The unique source whose project-relative path ends with
        ``rel_suffix`` (posix, e.g. ``"sim/pipeline.py"``); None if
        absent."""
        for src in self.sources():
            if src.rel == rel_suffix or src.rel.endswith("/" + rel_suffix):
                return src
        return None


RuleCheck = Callable[[Project], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    doc: str
    check: RuleCheck


_REGISTRY: Dict[str, Rule] = {}


def register(code: str, name: str) -> Callable[[RuleCheck], RuleCheck]:
    """Register a rule function under ``code`` (its docstring is the
    human description shown by ``repro lint --list-rules``)."""

    def wrap(fn: RuleCheck) -> RuleCheck:
        if code in _REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        _REGISTRY[code] = Rule(
            code=code, name=name, doc=(fn.__doc__ or "").strip(), check=fn
        )
        return fn

    return wrap


def all_rules() -> Dict[str, Rule]:
    """The registry, importing the built-in rules on first use."""
    from . import rules  # noqa: F401  (registers on import)

    return dict(_REGISTRY)


def run_lint(
    project: Project,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run (selected) rules over ``project``; inline-suppressed findings
    are dropped here, baseline filtering is the caller's concern.

    Findings are byte-identical regardless of PYTHONHASHSEED:
    everything downstream of fact extraction iterates sorted
    structures.
    """
    rules = all_rules()
    if select:
        unknown = sorted(set(select) - set(rules))
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
        selected = [rules[c] for c in select]
    else:
        selected = list(rules.values())

    by_rel: Dict[str, SourceFile] = {s.rel: s for s in project.sources()}
    findings: List[Finding] = []
    for rule in selected:
        for finding in rule.check(project):
            src = by_rel.get(finding.rel)
            if src is not None and src.is_suppressed(
                finding.line, finding.code
            ):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.rel, f.line, f.col, f.code))
    return findings


# --- shared AST helpers used by several rules ---


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


def iter_nodes_in_order(root: ast.AST) -> List[ast.AST]:
    """All descendant nodes with positions, sorted by source position."""
    positioned = [
        n
        for n in ast.walk(root)
        if hasattr(n, "lineno") and hasattr(n, "col_offset")
    ]
    positioned.sort(key=lambda n: (n.lineno, n.col_offset))
    return positioned


def decorator_names(node: ast.AST) -> List[str]:
    names: List[str] = []
    decorators: List[Any] = getattr(node, "decorator_list", [])
    for dec in decorators:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = dotted_name(target)
        if name:
            names.append(name)
    return names


def is_dataclass_def(node: ast.ClassDef) -> bool:
    return any(
        name.split(".")[-1] == "dataclass" for name in decorator_names(node)
    )


def dataclass_frozen(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Call):
            name = dotted_name(dec.func)
            if name and name.split(".")[-1] == "dataclass":
                for kw in dec.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
    return False

