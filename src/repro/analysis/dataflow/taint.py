"""Forward taint propagation with declarative source/sink/sanitizer
specs (RPR008).

Taint kinds form a small powerset lattice over
``{hash, id, rng, clock, env, order}`` — the nondeterminism families
that must never reach a fingerprint, journal record, cache payload or
surrogate feature vector:

* ``hash`` — builtin ``hash()`` (salted per process, the PR 1 bug);
* ``id`` — ``id()`` (address-dependent);
* ``rng`` — unseeded randomness (``random.*`` globals, bare
  ``random.Random()``, legacy ``np.random.*``, ``uuid4``, ``urandom``);
* ``clock`` — wall-clock reads (``time.time``, ``datetime.now``, …);
* ``env`` — ``os.environ`` lookups;
* ``order`` — unordered iteration (``set`` construction/literals,
  ``glob``, ``os.listdir``/``scandir``, ``Path.iterdir``/``glob``).
  ``dict`` iteration is insertion-ordered in Python and deliberately
  *not* a source — flagging it would drown the rule in noise.

Sanitizers: ``sorted``/``min``/``max``/``sum``/``any``/``all`` and
comparisons clear ``order``; ``len`` clears everything.  Resolved
project-class constructors (and unresolved CamelCase calls) are taint
*barriers* — object construction launders values into typed state whose
reads are already barriers — while builtin container constructors pass
taint through.  Function calls resolved through the call graph
substitute the callee's return summary (computed by fixpoint, so
recursion like ``_jsonable`` converges), which is what makes the rule
interprocedural: ``hash()`` two calls away from ``cell_fingerprint``
still lands in the payload.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from .callgraph import Target
from .facts import ProjectFacts, Term

#: ``random`` module draws that consult the process-global generator.
RANDOM_MODULE_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "getrandbits",
        "seed",
    }
)

#: Legacy NumPy global-state RNG entry points.
NP_RANDOM_FUNCS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "shuffle",
        "permutation",
        "choice",
        "uniform",
        "normal",
    }
)

WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.perf_counter",
        "time.monotonic",
        "time.process_time",
        "time.time_ns",
        "time.perf_counter_ns",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
    }
)

SOURCE_LABELS = {
    "hash": "builtin hash()",
    "id": "id()",
    "rng": "unseeded RNG",
    "clock": "wall-clock time",
    "env": "os.environ",
    "order": "unordered iteration",
}

_ORDER_CALLS = frozenset(
    {"glob.glob", "glob.iglob", "os.listdir", "os.scandir", "__set__"}
)
_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})
_ORDER_SANITIZERS = frozenset(
    {"sorted", "min", "max", "sum", "any", "all", "__cmp__"}
)
_CONTAINER_CTORS = frozenset({"dict", "list", "tuple"})
_SET_CTORS = frozenset({"set", "frozenset"})

#: Call-name sinks: any argument of these calls is a deterministic
#: payload, wherever the call appears.
SINK_CALLS: Dict[str, str] = {
    "cell_fingerprint": "a cell fingerprint payload",
    "policy_fingerprint": "a policy fingerprint payload",
    "trace_fingerprint": "a trace fingerprint payload",
    "derive_sweep_id": "a sweep id",
    "frame_entry": "a CRC-framed durable entry",
}

#: Return-value sinks: whatever these functions return is the
#: deterministic artifact itself, so taint *generated inside them* (or
#: flowing in through their parameters) is a finding.
SINK_RETURNS: Dict[Tuple[str, str], str] = {
    ("sim/parallel.py", "cell_fingerprint"): "a cell fingerprint",
    ("sim/parallel.py", "policy_fingerprint"): "a policy fingerprint",
    ("trace/store.py", "trace_fingerprint"): "a trace fingerprint",
    ("sim/coordinator.py", "derive_sweep_id"): "a sweep id",
    ("surrogate/features.py", "feature_vector"): (
        "a surrogate feature vector"
    ),
    ("surrogate/features.py", "feature_dict"): (
        "a surrogate feature vector"
    ),
    ("surrogate/features.py", "feature_matrix"): (
        "a surrogate feature vector"
    ),
    ("sim/results.py", "SimResult.to_dict"): "a CACHE_PAYLOAD field",
}

_JOURNAL_DESC = "a journal record"
_PARAM_MARK = "\0param:"
_MAX_FIXPOINT_ROUNDS = 12
_EMPTY: FrozenSet[str] = frozenset()


class TaintFinding(NamedTuple):
    """A raw RPR008 result (the rule wraps it into a ``Finding``)."""

    rel: str
    line: int
    col: int
    message: str


def _labels(kinds: Iterable[str]) -> str:
    names = sorted(SOURCE_LABELS[k] for k in kinds)
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def _real(kinds: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(k for k in kinds if not k.startswith(_PARAM_MARK))


def _markers(kinds: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(k for k in kinds if k.startswith(_PARAM_MARK))


class TaintEngine:
    """Evaluates symbolic terms against the source/sink specs."""

    def __init__(self, facts: ProjectFacts) -> None:
        self.facts = facts
        self.resolver = facts.resolver()
        self._summaries: Optional[
            Dict[Tuple[str, str], FrozenSet[str]]
        ] = None

    # --- source classification ---

    def _source_kinds(
        self,
        name: str,
        nargs: int,
        nkw: int,
        time_imports: FrozenSet[str],
    ) -> FrozenSet[str]:
        parts = name.split(".")
        short = parts[-1]
        if name == "hash":
            return frozenset({"hash"})
        if name == "id":
            return frozenset({"id"})
        if (
            len(parts) == 2
            and parts[0] == "random"
            and short in RANDOM_MODULE_FUNCS
        ):
            return frozenset({"rng"})
        if name in ("random.Random", "Random") and not (nargs or nkw):
            return frozenset({"rng"})
        if (
            len(parts) >= 2
            and parts[-2] == "random"
            and parts[0] in ("np", "numpy")
            and short in NP_RANDOM_FUNCS
        ):
            return frozenset({"rng"})
        if name in ("uuid.uuid4", "uuid4", "os.urandom", "urandom"):
            return frozenset({"rng"})
        if name in WALLCLOCK_CALLS:
            return frozenset({"clock"})
        if len(parts) == 1 and name in time_imports:
            return frozenset({"clock"})
        if name in _ORDER_CALLS:
            return frozenset({"order"})
        if name.startswith(".") and short in _ORDER_METHODS:
            return frozenset({"order"})
        return _EMPTY

    # --- term evaluation ---

    def eval_term(
        self,
        term: Term,
        rel: str,
        cls_qualname: Optional[str],
        *,
        markers: bool = False,
        summaries: Optional[Dict[Tuple[str, str], FrozenSet[str]]] = None,
        depth: int = 0,
    ) -> FrozenSet[str]:
        """Taint kinds a term may carry; with ``markers`` each parameter
        read contributes a pseudo-kind identifying the parameter."""
        if term is None or depth > 40:
            return _EMPTY
        kind = term.get("t")
        if kind == "p":
            if markers:
                return frozenset({_PARAM_MARK + str(term["n"])})
            return _EMPTY
        if kind == "g":
            name = str(term["n"])
            if name.split(".")[-1] == "environ":
                return frozenset({"env"})
            return _EMPTY
        if kind == "u":
            out: Set[str] = set()
            for member in term.get("m", ()):
                out |= self.eval_term(
                    member,
                    rel,
                    cls_qualname,
                    markers=markers,
                    summaries=summaries,
                    depth=depth + 1,
                )
            return frozenset(out)
        if kind == "c":
            return self._eval_call(
                term, rel, cls_qualname, markers, summaries, depth
            )
        return _EMPTY

    def _eval_call(
        self,
        term: Dict[str, Any],
        rel: str,
        cls_qualname: Optional[str],
        markers: bool,
        summaries: Optional[Dict[Tuple[str, str], FrozenSet[str]]],
        depth: int,
    ) -> FrozenSet[str]:
        name = str(term.get("n") or "")
        short = name.rsplit(".", 1)[-1] if name else ""
        arg_kinds: List[FrozenSet[str]] = [
            self.eval_term(
                a, rel, cls_qualname,
                markers=markers, summaries=summaries, depth=depth + 1,
            )
            for a in term.get("a", ())
        ]
        kw_kinds: Dict[str, FrozenSet[str]] = {
            key: self.eval_term(
                val, rel, cls_qualname,
                markers=markers, summaries=summaries, depth=depth + 1,
            )
            for key, val in term.get("k", {}).items()
        }
        base: Set[str] = set()
        for kinds in arg_kinds:
            base |= kinds
        for kinds in kw_kinds.values():
            base |= kinds
        recv = term.get("r")
        if recv is not None:
            base |= self.eval_term(
                recv, rel, cls_qualname,
                markers=markers, summaries=summaries, depth=depth + 1,
            )

        if short == "len":
            return _EMPTY
        if short in _ORDER_SANITIZERS:
            return frozenset(base - {"order"})

        file_facts = self.facts.file(rel) or {}
        time_imports = frozenset(file_facts.get("time_imports", ()))
        source = self._source_kinds(
            name, int(term.get("na", len(arg_kinds))), len(kw_kinds),
            time_imports,
        ) if name else _EMPTY
        if source:
            return frozenset(base | source)
        if short in _SET_CTORS:
            extra = {"order"} if (arg_kinds or kw_kinds) else set()
            return frozenset(base | extra)
        if short in _CONTAINER_CTORS:
            return frozenset(base)

        target = self.resolver.resolve_call(
            rel, name, term.get("rc"), cls_qualname
        )
        if target is not None:
            if target.kind == "class":
                return _EMPTY  # constructor barrier
            return self._apply_summary(
                target, term, arg_kinds, kw_kinds, summaries
            )
        if short[:1].isupper():
            return _EMPTY  # unresolved constructor-looking call
        return frozenset(base)

    def _apply_summary(
        self,
        target: Target,
        term: Dict[str, Any],
        arg_kinds: List[FrozenSet[str]],
        kw_kinds: Dict[str, FrozenSet[str]],
        summaries: Optional[Dict[Tuple[str, str], FrozenSet[str]]],
    ) -> FrozenSet[str]:
        table = summaries if summaries is not None else self.summaries()
        summary = table.get((target.rel, target.qualname), _EMPTY)
        if not summary:
            return _EMPTY
        params = list(target.record["params"])
        if target.record.get("cls") is not None and params:
            params = params[1:]  # self/cls bound by the receiver
        out: Set[str] = set(_real(summary))
        for marker in _markers(summary):
            pname = marker[len(_PARAM_MARK):]
            if pname in kw_kinds:
                out |= kw_kinds[pname]
            elif pname in params:
                idx = params.index(pname)
                if idx < len(arg_kinds):
                    out |= arg_kinds[idx]
        return frozenset(out)

    # --- return summaries (fixpoint) ---

    def summaries(self) -> Dict[Tuple[str, str], FrozenSet[str]]:
        """``(rel, qualname) -> kinds ∪ param-markers`` for every
        function's return value, computed to a bounded fixpoint."""
        if self._summaries is not None:
            return self._summaries
        table: Dict[Tuple[str, str], FrozenSet[str]] = {}
        for _ in range(_MAX_FIXPOINT_ROUNDS):
            changed = False
            for rel, fn in self.facts.iter_functions():
                key = (rel, fn["qualname"])
                new = self.eval_term(
                    fn["returns"], rel, fn.get("cls"),
                    markers=True, summaries=table,
                )
                if new != table.get(key, _EMPTY):
                    table[key] = new
                    changed = True
            if not changed:
                break
        self._summaries = table
        return table

    # --- sinks and findings ---

    def _sink_return_descs(self) -> Dict[Tuple[str, str], str]:
        """SINK_RETURNS resolved against actual project rels."""
        out: Dict[Tuple[str, str], str] = {}
        for (suffix, qualname), desc in SINK_RETURNS.items():
            for rel in sorted(self.facts.by_rel):
                if rel == suffix or rel.endswith("/" + suffix):
                    out[(rel, qualname)] = desc
        return out

    def _journal_sink(self, call: Dict[str, Any]) -> bool:
        name = str(call.get("name") or "")
        if name.rsplit(".", 1)[-1] != "append":
            return False
        if call.get("recv_ctor") == "Journal":
            return True
        receiver = name[: -len(".append")]
        return "journal" in receiver.lower()

    def findings(self) -> List[TaintFinding]:
        """All RPR008 findings over the project."""
        results: List[TaintFinding] = []
        sink_returns = self._sink_return_descs()

        # Parameters of sink-return functions are sinks themselves when
        # they flow into the returned artifact; propagate one level up
        # per fixpoint round so wrappers inherit sink-ness.
        param_sinks: Dict[Tuple[str, str, str], str] = {}
        for (rel, qualname), desc in sink_returns.items():
            fn = self._function(rel, qualname)
            if fn is None:
                continue
            summary = self.summaries().get((rel, qualname), _EMPTY)
            params = list(fn["params"])
            if fn.get("cls") is not None and params:
                params = params[1:]
            for marker in _markers(summary):
                pname = marker[len(_PARAM_MARK):]
                if pname in params:
                    param_sinks[(rel, qualname, pname)] = desc

        for _ in range(_MAX_FIXPOINT_ROUNDS):
            grew = False
            for rel, fn in self.facts.iter_functions():
                for call in fn["calls"]:
                    target = self.resolver.resolve_call(
                        rel, call["name"], call.get("recv_ctor"),
                        fn.get("cls"),
                    )
                    if target is None or target.kind != "function":
                        continue
                    new = self._derived_param_sinks(
                        rel, fn, call, target, param_sinks
                    )
                    if new:
                        grew = True
            if not grew:
                break

        for rel, fn in self.facts.iter_functions():
            results.extend(
                self._call_findings(rel, fn, param_sinks)
            )
        for (rel, qualname), desc in sorted(sink_returns.items()):
            fn = self._function(rel, qualname)
            if fn is None:
                continue
            kinds = _real(
                self.summaries().get((rel, qualname), _EMPTY)
            )
            if kinds:
                results.append(
                    TaintFinding(
                        rel=rel,
                        line=fn["line"],
                        col=fn["col"],
                        message=(
                            f"{qualname}() returns a value influenced "
                            f"by {_labels(kinds)}; its result is {desc} "
                            "and must stay deterministic"
                        ),
                    )
                )
        results.sort()
        return results

    def _function(
        self, rel: str, qualname: str
    ) -> Optional[Dict[str, Any]]:
        facts = self.facts.file(rel)
        if facts is None:
            return None
        for fn in facts["functions"]:
            if fn["qualname"] == qualname:
                return fn
        return None

    def _call_sink_positions(
        self,
        rel: str,
        fn: Dict[str, Any],
        call: Dict[str, Any],
        param_sinks: Dict[Tuple[str, str, str], str],
    ) -> List[Tuple[int, Optional[str], str]]:
        """``(arg index, kwarg name, desc)`` sink positions of a call."""
        name = str(call.get("name") or "")
        short = name.rsplit(".", 1)[-1] if name else ""
        positions: List[Tuple[int, Optional[str], str]] = []
        if short in SINK_CALLS or self._journal_sink(call):
            desc = SINK_CALLS.get(short, _JOURNAL_DESC)
            for idx in range(len(call["args"])):
                positions.append((idx, None, desc))
            for kw in call["kwargs"]:
                positions.append((-1, kw, desc))
            return positions
        target = self.resolver.resolve_call(
            rel, name, call.get("recv_ctor"), fn.get("cls")
        )
        if target is None or target.kind != "function":
            return positions
        params = list(target.record["params"])
        if target.record.get("cls") is not None and params:
            params = params[1:]
        for pname in call["kwargs"]:
            desc = param_sinks.get((target.rel, target.qualname, pname))
            if desc is not None:
                positions.append((-1, pname, desc))
        for idx, pname in enumerate(params):
            if idx >= len(call["args"]):
                break
            if pname in call["kwargs"]:
                continue
            desc = param_sinks.get((target.rel, target.qualname, pname))
            if desc is not None:
                positions.append((idx, None, desc))
        return positions

    def _derived_param_sinks(
        self,
        rel: str,
        fn: Dict[str, Any],
        call: Dict[str, Any],
        target: Target,
        param_sinks: Dict[Tuple[str, str, str], str],
    ) -> bool:
        """Marker flow into a sink position makes the enclosing
        function's parameter a sink too (one hop per round)."""
        grew = False
        for idx, kwname, desc in self._call_sink_positions(
            rel, fn, call, param_sinks
        ):
            term = (
                call["kwargs"].get(kwname)
                if kwname is not None
                else call["args"][idx]
            )
            kinds = self.eval_term(
                term, rel, fn.get("cls"), markers=True
            )
            for marker in _markers(kinds):
                pname = marker[len(_PARAM_MARK):]
                key = (rel, fn["qualname"], pname)
                if key not in param_sinks:
                    short = str(call.get("name") or "").rsplit(".", 1)[-1]
                    chained = desc if " via " in desc else (
                        f"{desc} via {short}()"
                    )
                    param_sinks[key] = chained
                    grew = True
        return grew

    def _call_findings(
        self,
        rel: str,
        fn: Dict[str, Any],
        param_sinks: Dict[Tuple[str, str, str], str],
    ) -> List[TaintFinding]:
        out: List[TaintFinding] = []
        for call in fn["calls"]:
            positions = self._call_sink_positions(
                rel, fn, call, param_sinks
            )
            if not positions:
                continue
            short = str(call.get("name") or "").rsplit(".", 1)[-1]
            for idx, kwname, desc in positions:
                term = (
                    call["kwargs"].get(kwname)
                    if kwname is not None
                    else call["args"][idx]
                )
                kinds = _real(
                    self.eval_term(term, rel, fn.get("cls"))
                )
                if not kinds:
                    continue
                where = (
                    f"argument {idx + 1}"
                    if kwname is None
                    else f"argument {kwname!r}"
                )
                out.append(
                    TaintFinding(
                        rel=rel,
                        line=call["line"],
                        col=call["col"],
                        message=(
                            f"value influenced by {_labels(kinds)} "
                            f"flows into {desc} ({short}() {where}); "
                            "fingerprints, journal records and cache "
                            "payloads must stay deterministic"
                        ),
                    )
                )
        return out
