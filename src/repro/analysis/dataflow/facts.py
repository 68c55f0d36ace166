"""Per-file fact extraction with a content-hash-keyed incremental cache.

One parse of a source file produces a JSON-serializable *facts* record:
imports, classes (bases, frozen-dataclass flag), functions (parameters,
call sites carrying symbolic taint terms, raw write operations,
exception handlers, raised names) and mutable-default descriptors.
Everything repro-lint needs project-wide is answerable from these
records, so a warm run parses nothing that has not changed: records
are cached under
``<repro cache dir>/lint-facts/<sha256(rel + content)>.json``, written
via :func:`repro.sim.durability.atomic_write` so a crash mid-write can
never leave a torn record for the next run to load.

Symbolic taint terms
--------------------

Expression dataflow is summarized as small JSON term trees evaluated
later by :mod:`.taint` against declarative source/sanitizer/sink specs:

* ``{"t": "p", "n": name}`` — the enclosing function's parameter;
* ``{"t": "g", "n": dotted}`` — a global name/attribute chain
  (``os.environ``);
* ``{"t": "c", "n": name, ...}`` — a call, carrying per-argument terms
  (sources, sanitizers and callee summaries are resolved at analysis
  time, so the cached facts stay spec-independent);
* ``{"t": "u", "m": [...]}`` — a union;
* ``None`` — a value with no taint-relevant structure.

Terms flow through assignments, containers, f-strings, comprehensions
and returns; plain attribute reads on non-global values are a deliberate
taint barrier (field-insensitive object state is all noise), while
method calls keep their receiver's term.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core import (
    Project,
    call_name,
    dataclass_frozen,
    dotted_name,
    is_dataclass_def,
)

#: Bump to invalidate every cached facts record (schema change).
FACTS_VERSION = 2

#: Bare names that mean a wall clock when imported ``from time``.
WALLCLOCK_FROM_TIME = frozenset(
    {
        "time",
        "perf_counter",
        "monotonic",
        "process_time",
        "time_ns",
        "perf_counter_ns",
        "monotonic_ns",
    }
)

Term = Optional[Dict[str, Any]]
Facts = Dict[str, Any]

_MAX_TERM_NODES = 120
_MAX_HINT_LEN = 160

_WRITE_SHORTS = ("save", "savez", "savez_compressed", "savetxt")
_OS_OPEN_WRITE_FLAGS = (
    "O_WRONLY",
    "O_RDWR",
    "O_APPEND",
    "O_CREAT",
    "O_TRUNC",
)


def _union(terms: Sequence[Term]) -> Term:
    """Normalized union: flatten, dedupe, drop Nones, bound the size."""
    flat: List[Dict[str, Any]] = []
    seen: Set[str] = set()

    def add(term: Term) -> None:
        if term is None:
            return
        if term.get("t") == "u":
            for member in term.get("m", ()):
                add(member)
            return
        key = json.dumps(term, sort_keys=True)
        if key not in seen:
            seen.add(key)
            flat.append(term)

    for term in terms:
        add(term)
    flat = [t for t in flat if _term_size(t) <= _MAX_TERM_NODES]
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return {"t": "u", "m": flat[:_MAX_TERM_NODES]}


def _term_size(term: Term) -> int:
    if term is None:
        return 0
    kind = term.get("t")
    if kind == "u":
        return 1 + sum(_term_size(m) for m in term.get("m", ()))
    if kind == "c":
        size = 1 + _term_size(term.get("r"))
        size += sum(_term_size(a) for a in term.get("a", ()))
        size += sum(_term_size(v) for v in term.get("k", {}).values())
        return size
    return 1


def _contains_raise(node: ast.AST) -> bool:
    """Any ``raise`` in ``node``'s own body (nested defs excluded)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Raise):
            return True
        if isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False


class _FunctionCtx:
    """Mutable per-scope extraction state (one function or class body)."""

    def __init__(
        self,
        name: str,
        qualname: str,
        cls: Optional[str],
        params: List[str],
        line: int,
        col: int,
    ) -> None:
        self.params: Set[str] = set(params)
        self.env: Dict[str, Term] = {}
        self.hints: Dict[str, str] = {}
        self.ctors: Dict[str, str] = {}
        self.returns: List[Term] = []
        self.handler_stack: List[Dict[str, Any]] = []
        self.record: Dict[str, Any] = {
            "name": name,
            "qualname": qualname,
            "cls": cls,
            "line": line,
            "col": col,
            "params": list(params),
            "returns": None,
            "calls": [],
            "writes": [],
            "handlers": [],
            "raises": [],
        }


class _Extractor:
    """Walks one module, producing its facts record."""

    def __init__(self, rel: str, tree: ast.Module) -> None:
        self.rel = rel
        self.tree = tree
        self.functions: List[Dict[str, Any]] = []
        self.classes: List[Dict[str, Any]] = []
        self.defaults: List[Dict[str, Any]] = []
        self.imports: List[Dict[str, Any]] = []

    # --- top level ---

    def extract(self) -> Facts:
        self._collect_imports()
        module_ctx = _FunctionCtx("<module>", "<module>", None, [], 1, 0)
        self._run_scope(module_ctx, self.tree.body, "", None)
        self.functions.append(module_ctx.record)
        self._reconcile_calls(module_ctx.record)
        return {
            "version": FACTS_VERSION,
            "rel": self.rel,
            "imports": self.imports,
            "time_imports": sorted(self._time_imports()),
            "classes": self.classes,
            "functions": self.functions,
            "defaults": self.defaults,
        }

    def _run_scope(
        self,
        ctx: _FunctionCtx,
        body: Sequence[ast.stmt],
        qual_prefix: str,
        cls: Optional[str],
    ) -> None:
        """Two passes: converge local bindings, then record facts."""
        for stmt in body:
            self._exec_stmt(stmt, ctx, False, qual_prefix, cls)
        for stmt in body:
            self._exec_stmt(stmt, ctx, True, qual_prefix, cls)
        ctx.record["returns"] = _union(ctx.returns)

    def _time_imports(self) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALLCLOCK_FROM_TIME:
                        names.add(alias.asname or alias.name)
        return names

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append(
                        {
                            "kind": "import",
                            "module": alias.name,
                            "name": None,
                            "asname": alias.asname
                            or alias.name.split(".")[0],
                            "level": 0,
                        }
                    )
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    self.imports.append(
                        {
                            "kind": "from",
                            "module": node.module or "",
                            "name": alias.name,
                            "asname": alias.asname or alias.name,
                            "level": node.level,
                        }
                    )

    # --- statements ---

    def _exec_stmt(
        self,
        stmt: ast.stmt,
        ctx: _FunctionCtx,
        record: bool,
        qual_prefix: str,
        cls: Optional[str],
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.env.setdefault(stmt.name, None)
            if record:
                self._do_function(stmt, ctx, qual_prefix, cls)
            return
        if isinstance(stmt, ast.ClassDef):
            ctx.env.setdefault(stmt.name, None)
            if record:
                self._do_class(stmt, ctx, qual_prefix)
            return
        if isinstance(stmt, ast.Assign):
            term = self._term(stmt.value, ctx, record)
            for target in stmt.targets:
                self._bind(target, term, stmt.value, ctx)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                term = self._term(stmt.value, ctx, record)
                self._bind(stmt.target, term, stmt.value, ctx)
            return
        if isinstance(stmt, ast.AugAssign):
            term = self._term(stmt.value, ctx, record)
            if isinstance(stmt.target, ast.Name):
                ctx.env[stmt.target.id] = _union(
                    [ctx.env.get(stmt.target.id), term]
                )
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                term = self._term(stmt.value, ctx, record)
                if record:
                    ctx.returns.append(term)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            term = self._term(stmt.iter, ctx, record)
            self._bind(stmt.target, term, stmt.iter, ctx)
            for sub in stmt.body + stmt.orelse:
                self._exec_stmt(sub, ctx, record, qual_prefix, cls)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                term = self._term(item.context_expr, ctx, record)
                if item.optional_vars is not None:
                    self._bind(
                        item.optional_vars, term, item.context_expr, ctx
                    )
            for sub in stmt.body:
                self._exec_stmt(sub, ctx, record, qual_prefix, cls)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body:
                self._exec_stmt(sub, ctx, record, qual_prefix, cls)
            for handler in stmt.handlers:
                self._do_handler(handler, ctx, record, qual_prefix, cls)
            for sub in stmt.orelse + stmt.finalbody:
                self._exec_stmt(sub, ctx, record, qual_prefix, cls)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._term(stmt.exc, ctx, record)
                target = (
                    stmt.exc.func
                    if isinstance(stmt.exc, ast.Call)
                    else stmt.exc
                )
                name = dotted_name(target)
                if record and name:
                    ctx.record["raises"].append(name)
                    if ctx.handler_stack:
                        ctx.handler_stack[-1]["raises"].append(name)
            if stmt.cause is not None:
                self._term(stmt.cause, ctx, record)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return
        # Generic fallback (If, While, Expr, Assert, Match, ...): evaluate
        # child expressions, execute child statements, preserving order.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._term(child, ctx, record)
            elif isinstance(child, ast.stmt):
                self._exec_stmt(child, ctx, record, qual_prefix, cls)
            elif isinstance(child, ast.withitem):  # pragma: no cover
                self._term(child.context_expr, ctx, record)

    def _do_handler(
        self,
        handler: ast.ExceptHandler,
        ctx: _FunctionCtx,
        record: bool,
        qual_prefix: str,
        cls: Optional[str],
    ) -> None:
        if handler.name:
            ctx.env[handler.name] = None
        if not record:
            for sub in handler.body:
                self._exec_stmt(sub, ctx, False, qual_prefix, cls)
            return
        types: List[str] = []
        if handler.type is not None:
            nodes = (
                list(handler.type.elts)
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for node in nodes:
                name = dotted_name(node)
                if name:
                    types.append(name)
        rec: Dict[str, Any] = {
            "line": handler.lineno,
            "col": handler.col_offset,
            "bare": handler.type is None,
            "types": types,
            "has_raise": _contains_raise(handler),
            "raises": [],
            "calls": [],
        }
        ctx.handler_stack.append(rec)
        try:
            for sub in handler.body:
                self._exec_stmt(sub, ctx, True, qual_prefix, cls)
        finally:
            ctx.handler_stack.pop()
        ctx.record["handlers"].append(rec)

    # --- definitions ---

    def _do_function(
        self,
        node: ast.AST,
        outer: _FunctionCtx,
        qual_prefix: str,
        cls: Optional[str],
    ) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list:
            self._term(dec, outer, True)
        args = node.args
        positional = args.posonlyargs + args.args
        default_pairs: List[Tuple[ast.arg, ast.expr]] = []
        if args.defaults:
            default_pairs.extend(
                zip(positional[-len(args.defaults):], args.defaults)
            )
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                default_pairs.append((arg, kw_default))
        for arg, default in default_pairs:
            self._term(default, outer, True)
            self._record_default(
                "param", node.name, arg.arg, default
            )
        params = [a.arg for a in positional + args.kwonlyargs]
        if args.vararg is not None:
            params.append(args.vararg.arg)
        if args.kwarg is not None:
            params.append(args.kwarg.arg)
        qualname = f"{qual_prefix}{node.name}"
        ctx = _FunctionCtx(
            node.name, qualname, cls, params, node.lineno, node.col_offset
        )
        self._run_scope(ctx, node.body, qualname + ".", cls)
        self.functions.append(ctx.record)

    def _do_class(
        self, node: ast.ClassDef, outer: _FunctionCtx, qual_prefix: str
    ) -> None:
        for dec in node.decorator_list:
            self._term(dec, outer, True)
        for base in node.bases:
            self._term(base, outer, True)
        qualname = f"{qual_prefix}{node.name}"
        self.classes.append(self._class_record(node, qualname))
        body_ctx = _FunctionCtx(
            "<class>",
            f"{qualname}.<class>",
            qualname,
            [],
            node.lineno,
            node.col_offset,
        )
        non_defs = [
            stmt
            for stmt in node.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        self._run_scope(body_ctx, non_defs, qualname + ".", qualname)
        if body_ctx.record["calls"] or body_ctx.record["handlers"]:
            self.functions.append(body_ctx.record)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._do_function(stmt, outer, qualname + ".", qualname)
            elif isinstance(stmt, ast.ClassDef):
                self._do_class(stmt, outer, qualname + ".")
        if is_dataclass_def(node):
            self._dataclass_defaults(node)

    def _class_record(
        self, node: ast.ClassDef, qualname: str
    ) -> Dict[str, Any]:
        bases_short: List[str] = []
        bases_full: List[str] = []
        for base in node.bases:
            short = self._base_short(base)
            if short:
                bases_short.append(short)
            full = dotted_name(
                base.value if isinstance(base, ast.Subscript) else base
            )
            if full:
                bases_full.append(full)
        return {
            "name": node.name,
            "qualname": qualname,
            "line": node.lineno,
            "col": node.col_offset,
            "bases": bases_short,
            "bases_full": bases_full,
            "frozen": dataclass_frozen(node),
        }

    @staticmethod
    def _base_short(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Subscript):
            return _Extractor._base_short(node.value)
        return None

    def _dataclass_defaults(self, cls: ast.ClassDef) -> None:
        for node in cls.body:
            value: Optional[ast.expr] = None
            target_name: Optional[str] = None
            if isinstance(node, ast.AnnAssign) and node.value is not None:
                annotation = node.annotation
                ann = (
                    annotation.value
                    if isinstance(annotation, ast.Subscript)
                    else annotation
                )
                ann_name = (
                    ann.id
                    if isinstance(ann, ast.Name)
                    else ann.attr
                    if isinstance(ann, ast.Attribute)
                    else None
                )
                if ann_name == "ClassVar":
                    continue
                if isinstance(node.target, ast.Name):
                    value = node.value
                    target_name = node.target.id
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    value = node.value
                    target_name = node.targets[0].id
            if value is None or target_name is None:
                continue
            if isinstance(value, ast.Call) and call_name(value) in (
                "field",
                "dataclasses.field",
            ):
                continue
            self._record_default("field", cls.name, target_name, value)

    def _record_default(
        self, where: str, owner: str, arg: str, value: ast.expr
    ) -> None:
        shape: Optional[str] = None
        name: Optional[str] = None
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            shape = "literal"
        elif isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
            shape = "comprehension"
        elif isinstance(value, ast.Call):
            name = call_name(value)
            if name is None:
                return
            shape = "call"
        if shape is None:
            return
        self.defaults.append(
            {
                "where": where,
                "owner": owner,
                "arg": arg,
                "shape": shape,
                "call_name": name,
                "line": value.lineno,
                "col": value.col_offset,
            }
        )

    # --- expressions ---

    def _bind(
        self,
        target: ast.AST,
        term: Term,
        value: ast.expr,
        ctx: _FunctionCtx,
    ) -> None:
        if isinstance(target, ast.Name):
            ctx.env[target.id] = term
            ctx.hints[target.id] = self._hint(value, ctx)
            if isinstance(value, ast.Call):
                name = call_name(value)
                short = name.rsplit(".", 1)[-1] if name else ""
                if short[:1].isupper():
                    ctx.ctors[target.id] = short
                else:
                    ctx.ctors.pop(target.id, None)
            else:
                ctx.ctors.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, term, value, ctx)
            return
        if isinstance(target, ast.Starred):
            self._bind(target.value, term, value, ctx)

    def _term(
        self, expr: ast.expr, ctx: _FunctionCtx, record: bool
    ) -> Term:
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Name):
            if expr.id in ctx.env:
                return ctx.env[expr.id]
            if expr.id in ctx.params:
                return {"t": "p", "n": expr.id}
            return {"t": "g", "n": expr.id}
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is not None:
                root = dotted.split(".", 1)[0]
                if root not in ctx.env and root not in ctx.params:
                    return {"t": "g", "n": dotted}
            else:
                self._term(expr.value, ctx, record)
            return None  # attribute read on a value: taint barrier
        if isinstance(expr, ast.Call):
            return self._call(expr, ctx, record)
        if isinstance(expr, ast.BinOp):
            return _union(
                [
                    self._term(expr.left, ctx, record),
                    self._term(expr.right, ctx, record),
                ]
            )
        if isinstance(expr, ast.BoolOp):
            return _union([self._term(v, ctx, record) for v in expr.values])
        if isinstance(expr, ast.UnaryOp):
            return self._term(expr.operand, ctx, record)
        if isinstance(expr, ast.Compare):
            members = [self._term(expr.left, ctx, record)]
            members.extend(
                self._term(c, ctx, record) for c in expr.comparators
            )
            inner = _union(members)
            if inner is None:
                return None
            return {"t": "c", "n": "__cmp__", "rc": None, "a": [inner],
                    "k": {}, "r": None}
        if isinstance(expr, ast.JoinedStr):
            return _union(
                [self._term(v, ctx, record) for v in expr.values]
            )
        if isinstance(expr, ast.FormattedValue):
            if expr.format_spec is not None:
                self._term(expr.format_spec, ctx, record)
            return self._term(expr.value, ctx, record)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return _union([self._term(e, ctx, record) for e in expr.elts])
        if isinstance(expr, ast.Dict):
            members = [
                self._term(k, ctx, record)
                for k in expr.keys
                if k is not None
            ]
            members.extend(self._term(v, ctx, record) for v in expr.values)
            return _union(members)
        if isinstance(expr, ast.Set):
            inner = _union([self._term(e, ctx, record) for e in expr.elts])
            return {"t": "c", "n": "__set__", "rc": None,
                    "a": [inner] if inner is not None else [], "k": {},
                    "r": None}
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            for gen in expr.generators:
                iter_term = self._term(gen.iter, ctx, record)
                self._bind(gen.target, iter_term, gen.iter, ctx)
                for cond in gen.ifs:
                    self._term(cond, ctx, record)
            elt_term = self._term(expr.elt, ctx, record)
            if isinstance(expr, ast.SetComp):
                return {"t": "c", "n": "__set__", "rc": None,
                        "a": [elt_term] if elt_term is not None else [],
                        "k": {}, "r": None}
            return elt_term
        if isinstance(expr, ast.DictComp):
            for gen in expr.generators:
                iter_term = self._term(gen.iter, ctx, record)
                self._bind(gen.target, iter_term, gen.iter, ctx)
                for cond in gen.ifs:
                    self._term(cond, ctx, record)
            return _union(
                [
                    self._term(expr.key, ctx, record),
                    self._term(expr.value, ctx, record),
                ]
            )
        if isinstance(expr, ast.Subscript):
            return _union(
                [
                    self._term(expr.value, ctx, record),
                    self._term(expr.slice, ctx, record),
                ]
            )
        if isinstance(expr, ast.Slice):
            members = [
                self._term(part, ctx, record)
                for part in (expr.lower, expr.upper, expr.step)
                if part is not None
            ]
            return _union(members)
        if isinstance(expr, ast.IfExp):
            self._term(expr.test, ctx, record)
            return _union(
                [
                    self._term(expr.body, ctx, record),
                    self._term(expr.orelse, ctx, record),
                ]
            )
        if isinstance(expr, ast.Starred):
            return self._term(expr.value, ctx, record)
        if isinstance(expr, ast.Await):
            return self._term(expr.value, ctx, record)
        if isinstance(expr, ast.NamedExpr):
            term = self._term(expr.value, ctx, record)
            self._bind(expr.target, term, expr.value, ctx)
            return term
        if isinstance(expr, ast.Lambda):
            saved = {
                a.arg: ctx.env.get(a.arg)
                for a in expr.args.args + expr.args.kwonlyargs
            }
            for name in saved:
                ctx.env[name] = None
            self._term(expr.body, ctx, record)
            for name, old in saved.items():
                if old is None:
                    ctx.env.pop(name, None)
                else:
                    ctx.env[name] = old
            return None
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            if expr.value is not None:
                term = self._term(expr.value, ctx, record)
                if record:
                    ctx.returns.append(term)
            return None
        return None

    def _call(
        self, call: ast.Call, ctx: _FunctionCtx, record: bool
    ) -> Term:
        func = call.func
        name = dotted_name(func)
        method = False
        recv_term: Term = None
        recv_ctor: Optional[str] = None
        if name is None:
            if isinstance(func, ast.Attribute):
                recv_term = self._term(func.value, ctx, record)
                name = "." + func.attr
                method = True
            else:
                self._term(func, ctx, record)
                name = ""
        elif isinstance(func, ast.Attribute):
            root = name.split(".", 1)[0]
            if (
                root in ctx.env
                or root in ctx.params
                or root in ctx.ctors
            ):
                method = True
                recv_term = self._term(func.value, ctx, record)
                recv_ctor = ctx.ctors.get(root)
        arg_terms: List[Term] = [
            self._term(arg, ctx, record) for arg in call.args
        ]
        kw_terms: Dict[str, Term] = {}
        star_terms: List[Term] = []
        for kw in call.keywords:
            term = self._term(kw.value, ctx, record)
            if kw.arg is None:
                star_terms.append(term)
            else:
                kw_terms[kw.arg] = term
        if record:
            self._record_call(
                call, ctx, name, method, recv_ctor, recv_term,
                arg_terms, kw_terms,
            )
        if star_terms:
            arg_terms.append(_union(star_terms))
        return {
            "t": "c",
            "n": name,
            "rc": recv_ctor,
            "a": arg_terms,
            "k": kw_terms,
            "r": recv_term,
        }

    def _record_call(
        self,
        call: ast.Call,
        ctx: _FunctionCtx,
        name: str,
        method: bool,
        recv_ctor: Optional[str],
        recv_term: Term,
        arg_terms: List[Term],
        kw_terms: Dict[str, Term],
    ) -> None:
        arg_hints = [self._hint(a, ctx) for a in call.args]
        hint_parts = list(arg_hints)
        hint_parts.extend(
            self._hint(kw.value, ctx) for kw in call.keywords
        )
        excl = False
        for arg in call.args:
            for sub in ast.walk(arg):
                sub_name = dotted_name(sub)
                if sub_name and sub_name.split(".")[-1] == "O_EXCL":
                    excl = True
        record: Dict[str, Any] = {
            "name": name,
            "method": method,
            "recv_ctor": recv_ctor,
            "line": call.lineno,
            "col": call.col_offset,
            "nargs": len(call.args),
            "nkw": len(call.keywords),
            "args": arg_terms,
            "kwargs": kw_terms,
            "recv": recv_term,
            "hint": " ".join(p for p in hint_parts if p)[:_MAX_HINT_LEN],
            "arg_hints": arg_hints,
            "excl": excl,
        }
        ctx.record["calls"].append(record)
        if ctx.handler_stack and name:
            ctx.handler_stack[-1]["calls"].append(name)
        short = name.rsplit(".", 1)[-1] if name else ""
        self._record_write(call, ctx, name, short, arg_hints, excl)

    def _record_write(
        self,
        call: ast.Call,
        ctx: _FunctionCtx,
        name: str,
        short: str,
        arg_hints: List[str],
        excl: bool,
    ) -> None:
        func = call.func
        root = name.split(".", 1)[0] if name else ""
        op: Optional[str] = None
        mode: Optional[str] = None
        hint = ""
        if short == "open" and root != "os":
            # builtin open, io.open, or Path.open — os.open takes
            # integer flags and is handled separately below.
            mode = "r"
            if len(call.args) >= 2 and isinstance(
                call.args[1], ast.Constant
            ):
                if isinstance(call.args[1].value, str):
                    mode = call.args[1].value
            elif (
                call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
                and isinstance(func, ast.Attribute)
                and call.args[0].value
                and set(call.args[0].value) <= set("rwaxbt+U")
            ):
                # path.open("w"): the first argument is the mode (a
                # filename like "data.tar" fails the character test).
                mode = call.args[0].value
            for kw in call.keywords:
                if (
                    kw.arg == "mode"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                ):
                    mode = kw.value.value
            if any(c in mode for c in "wax+"):
                op = "open"
                hint = arg_hints[0] if arg_hints else ""
                if isinstance(func, ast.Attribute):
                    hint = self._hint(func.value, ctx)
        elif short in ("write_text", "write_bytes"):
            op = short
            if isinstance(func, ast.Attribute):
                hint = self._hint(func.value, ctx)
        elif name in ("json.dump", "pickle.dump"):
            op = name
            hint = arg_hints[1] if len(arg_hints) > 1 else ""
        elif root in ("np", "numpy") and short in _WRITE_SHORTS:
            op = name
            hint = arg_hints[0] if arg_hints else ""
        elif name in ("os.replace", "os.rename"):
            op = name
            hint = " ".join(arg_hints[:2])
        elif name in ("os.unlink", "os.remove"):
            op = name
            hint = arg_hints[0] if arg_hints else ""
        elif short == "unlink" and isinstance(func, ast.Attribute):
            op = "unlink"
            hint = self._hint(func.value, ctx)
        elif name in ("os.truncate", "os.ftruncate", "os.write"):
            op = name
            hint = arg_hints[0] if arg_hints else ""
        elif name == "os.open":
            flagged = False
            for arg in call.args[1:2]:
                for sub in ast.walk(arg):
                    sub_name = dotted_name(sub)
                    if sub_name and sub_name.split(".")[-1] in (
                        _OS_OPEN_WRITE_FLAGS
                    ):
                        flagged = True
            if flagged:
                op = "os.open"
                hint = arg_hints[0] if arg_hints else ""
        if op is None:
            return
        ctx.record["writes"].append(
            {
                "op": op,
                "mode": mode,
                "hint": hint[:_MAX_HINT_LEN],
                "line": call.lineno,
                "col": call.col_offset,
                "excl": excl,
            }
        )

    def _hint(
        self, expr: ast.expr, ctx: _FunctionCtx, depth: int = 0
    ) -> str:
        """Searchable text of ``expr``: constants, names, attribute
        chains, one level of local-variable indirection."""
        if depth > 4:
            return ""
        if isinstance(expr, ast.Constant):
            return str(expr.value) if isinstance(expr.value, str) else ""
        if isinstance(expr, ast.Name):
            resolved = ctx.hints.get(expr.id)
            if resolved:
                return f"{expr.id} {resolved}"[:_MAX_HINT_LEN]
            return expr.id
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted:
                return dotted
            return f"{self._hint(expr.value, ctx, depth + 1)}.{expr.attr}"
        if isinstance(expr, ast.BinOp):
            left = self._hint(expr.left, ctx, depth + 1)
            right = self._hint(expr.right, ctx, depth + 1)
            return f"{left} {right}".strip()[:_MAX_HINT_LEN]
        if isinstance(expr, ast.JoinedStr):
            parts = [self._hint(v, ctx, depth + 1) for v in expr.values]
            return " ".join(p for p in parts if p)[:_MAX_HINT_LEN]
        if isinstance(expr, ast.FormattedValue):
            return self._hint(expr.value, ctx, depth + 1)
        if isinstance(expr, ast.Call):
            parts = [self._hint(expr.func, ctx, depth + 1)]
            parts.extend(
                self._hint(a, ctx, depth + 1) for a in expr.args
            )
            return " ".join(p for p in parts if p)[:_MAX_HINT_LEN]
        if isinstance(expr, ast.Subscript):
            return self._hint(expr.value, ctx, depth + 1)
        return ""

    def _reconcile_calls(self, module_record: Dict[str, Any]) -> None:
        """Safety net: any ``ast.Call`` the structured walk missed is
        appended as a bare record, so per-file rules (RPR001) can never
        silently lose a call site to an unhandled expression position."""
        seen: Set[Tuple[int, int]] = set()
        for fn in self.functions:
            for rec in fn["calls"]:
                seen.add((rec["line"], rec["col"]))
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            pos = (node.lineno, node.col_offset)
            if pos in seen:
                continue
            seen.add(pos)
            name = dotted_name(node.func)
            if name is None and isinstance(node.func, ast.Attribute):
                name = "." + node.func.attr
            module_record["calls"].append(
                {
                    "name": name or "",
                    "method": False,
                    "recv_ctor": None,
                    "line": node.lineno,
                    "col": node.col_offset,
                    "nargs": len(node.args),
                    "nkw": len(node.keywords),
                    "args": [],
                    "kwargs": {},
                    "recv": None,
                    "hint": "",
                    "arg_hints": [],
                    "excl": False,
                }
            )


def extract_file_facts(rel: str, text: str) -> Facts:
    """Facts record for one source file (parses ``text``)."""
    tree = ast.parse(text, filename=rel)
    return _Extractor(rel, tree).extract()


# --- incremental cache ---


def facts_cache_dir() -> Path:
    """``<repro cache dir>/lint-facts`` — beside the result cache."""
    from ...sim.parallel import default_cache_dir

    return default_cache_dir() / "lint-facts"


def content_digest(rel: str, text: str) -> str:
    payload = f"repro-lint-facts:{FACTS_VERSION}:{rel}:".encode("utf-8")
    return hashlib.sha256(payload + text.encode("utf-8")).hexdigest()


def _load_cached(path: Path) -> Optional[Facts]:
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(loaded, dict)
        or loaded.get("version") != FACTS_VERSION
    ):
        return None
    return loaded


def _store_cached(path: Path, facts: Facts) -> None:
    from ...sim.durability import atomic_write

    try:
        atomic_write(
            path,
            json.dumps(facts, sort_keys=True, separators=(",", ":")),
            fsync=False,
        )
    except OSError:
        pass  # a read-only cache degrades to cold analysis, never fails


class ProjectFacts:
    """All per-file facts of one project, plus lazy derived indices."""

    def __init__(self, by_rel: Dict[str, Facts]) -> None:
        self.by_rel = by_rel
        self._resolver: Optional[Any] = None
        self._taint: Optional[Any] = None

    def file(self, rel: str) -> Optional[Facts]:
        return self.by_rel.get(rel)

    def find(self, rel_suffix: str) -> Optional[Facts]:
        """Facts of the unique file whose rel ends with ``rel_suffix``."""
        for rel in sorted(self.by_rel):
            if rel == rel_suffix or rel.endswith("/" + rel_suffix):
                return self.by_rel[rel]
        return None

    def iter_functions(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for rel in sorted(self.by_rel):
            for fn in self.by_rel[rel]["functions"]:
                yield rel, fn

    def iter_classes(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        for rel in sorted(self.by_rel):
            for cls in self.by_rel[rel]["classes"]:
                yield rel, cls

    def resolver(self) -> Any:
        if self._resolver is None:
            from .callgraph import Resolver

            self._resolver = Resolver(self.by_rel)
        return self._resolver

    def taint(self) -> Any:
        if self._taint is None:
            from .taint import TaintEngine

            self._taint = TaintEngine(self)
        return self._taint


def build_project_facts(project: Project) -> ProjectFacts:
    """Facts for every source in ``project``, loading unchanged files
    from the content-hash cache and extracting the rest."""
    cache_root = facts_cache_dir()
    by_rel: Dict[str, Facts] = {}
    for src in project.sources():
        path = cache_root / f"{content_digest(src.rel, src.text)}.json"
        facts = _load_cached(path)
        if facts is None:
            facts = extract_file_facts(src.rel, src.text)
            _store_cached(path, facts)
        by_rel[src.rel] = facts
    return ProjectFacts(by_rel)
