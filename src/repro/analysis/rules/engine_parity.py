"""RPR004 — engine parity: the staged and batched engines must drift
at lint time, not in the fuzz suite.

DESIGN.md section 7 argues the batched engine is *bit-identical* to the
staged pipeline because its data path mirrors the staged stage
statement for statement.  That argument decays the first time someone
edits one side — ``sim/batch.py`` holds one batched copy of the data
path, the per-chunk pass ``data_pass``, against one staged original
(``DataStage.process``) — and without this rule only the differential
fuzz property would stand between a one-sided edit and silently
divergent results.

This rule extracts a *normalized memory-path sequence* from each side
and diffs them:

* every identifier the functions touch is classified into a channel
  (L1, REMOTE_CACHE, RING, L2, DRAM) via an explicit token table;
* per function, tokens are ordered by source position and reduced to
  first-occurrence order — the order in which the copy consults the
  memory hierarchy.  For the pass that is its fused loop over the
  gathered set lists and everything after it (the DRAM row outcomes and
  the tallies); the gathering above the loop consults channels in
  construction order, not access order;
* both sides must report the identical channel order (canonically
  L1 → REMOTE_CACHE → L2 → RING → DRAM: the remote-cache *hit* pays L2
  latency before any ring traversal is costed) — or, for a pass that
  *tallies* each access by (home, requester) pair instead of costing
  it, that order without RING, provided the engine's ``flush_tallies``
  charges the ring with ``_TRANSFER_BYTES``.

The pass is the *only* batched copy: the replay windows
(``small_window``, ``vec_window``) record each access's address and
home for it and must touch no data-path channel and no tally
themselves.  Three auxiliary parity checks ride along: the ring
transfer payload constant must agree between the staged literal and
``_TRANSFER_BYTES``; ``policy.on_epoch`` may only fire through the
shared ``close_epoch`` (both engines must share one epoch semantics);
and both windows must route translation through the one
``translate_head``.

A further check covers the bulk fault path.  ``batch_faults`` inlines
the audited ``map_single`` and reservation sequences (frame pop, region
reservation, PTE install) with its own counter updates, so it must
never call ``place`` / ``map_single`` / ``map_page`` /
``map_into_region`` / ``ensure_region`` itself, and never touch a
data-path channel.  The inlining is only sound for policies whose
``place`` is provably one of those sequences, so every
``batch_faults(...)`` call must sit under an ``if`` whose test is
``bulk_proven`` or an ``and`` chain with it as a direct operand, and
every assignment to ``bulk_proven`` must be derived from membership of
the policy's unbound ``place`` in the ``AUDITED_PLACE`` table (on top
of ``fault_batch_eligible``).  An unfenced call, or any binding of
``bulk_proven`` that does not reference the audit table (a later
``bulk_proven = True`` included), is drift.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core import (
    Finding,
    Project,
    SourceFile,
    call_name,
    iter_nodes_in_order,
    register,
)

PIPELINE_FILE = "sim/pipeline.py"
BATCH_FILE = "sim/batch.py"

#: Identifier -> data-path channel.  Exact names, not substrings: the
#: table is the normalization contract, and a rename that escapes it
#: fails the lint loudly (update the table with the rename).
DATA_CHANNELS: Dict[str, str] = {
    # L1 data cache
    "l1_caches": "L1",
    "l1_sets": "L1",
    "l1_latency": "L1",
    "l1_hit": "L1",
    "l1_miss": "L1",
    "l1_ways": "L1",
    "l1_set": "L1",
    "l1_table": "L1",
    # remote cache
    "remote_caches": "REMOTE_CACHE",
    "rc_sets": "REMOTE_CACHE",
    "rc_ways": "REMOTE_CACHE",
    "rc_set": "REMOTE_CACHE",
    "rc_table": "REMOTE_CACHE",
    "rc_insert_all": "REMOTE_CACHE",
    "rc_look": "REMOTE_CACHE",
    "rc_hit": "REMOTE_CACHE",
    "rc_miss": "REMOTE_CACHE",
    "remote_lookups": "REMOTE_CACHE",
    "remote_hits": "REMOTE_CACHE",
    "use_rc": "REMOTE_CACHE",
    "should_insert": "REMOTE_CACHE",
    # ring / inter-chiplet transfer
    "ring": "RING",
    "rcost_tab": "RING",
    "rcost_np": "RING",
    "hops_tab": "RING",
    "ring_traffic": "RING",
    "ring_traffic_get": "RING",
    "_TRANSFER_BYTES": "RING",
    "record_transfer": "RING",
    "pair_counts": "RING",
    "vec_on_ring": "RING",
    "ror": "RING",
    "remote_on_ring": "RING",
    # home L2
    "l2_caches": "L2",
    "l2_sets": "L2",
    "l2_latency": "L2",
    "l2_hit": "L2",
    "l2_miss": "L2",
    "l2_ways": "L2",
    "l2_set": "L2",
    "l2_table": "L2",
    # DRAM
    "dram": "DRAM",
    "open_row": "DRAM",
    "open_row_get": "DRAM",
    "ch_accesses": "DRAM",
    "row_hit_c": "DRAM",
    "row_miss_c": "DRAM",
    "row_hits": "DRAM",
    "ROW_SIZE": "DRAM",
    "dram_acc": "DRAM",
    "dram_rh": "DRAM",
    # per-(home, requester) service tallies of the batched engine
    "t_l1": "L1",
    "t_rc": "REMOTE_CACHE",
    "t_l2": "L2",
    "t_rh": "DRAM",
    "t_rm": "DRAM",
}

#: The batched engine's tally flush.  A data pass that tallies each
#: access by (home, requester) pair instead of costing it touches no
#: RING token per access; the flush charges the ring for the pair
#: counts at run end, so it must use the shared payload constant.
RING_FLUSH_FUNC = "flush_tallies"

#: The batched engine's one copy of the data path, which must agree
#: with the staged stage.
BATCH_DATA_FUNC = "data_pass"

#: The batched replay windows: they translate through
#: ``translate_head`` and leave the data path to the pass.
WINDOW_FUNCS = ("small_window", "vec_window")

#: What a window may not touch: any data-path channel, or the pass's
#: per-pair service counts (a window that does has become a second
#: data-path copy).
WINDOW_FORBIDDEN: Dict[str, str] = {**DATA_CHANNELS, "tally": "TALLY"}


def _finding(
    src: SourceFile, node: ast.AST, message: str
) -> Finding:
    return Finding(
        code="RPR004",
        path=src.path,
        rel=src.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


def _nodes(source: Union[SourceFile, ast.AST]) -> Iterable[ast.AST]:
    """All nodes of a source file (memoized walk) or an AST subtree."""
    if isinstance(source, SourceFile):
        return source.nodes()
    return ast.walk(source)


def _find_function(
    source: Union[SourceFile, ast.AST], name: str
) -> Optional[ast.FunctionDef]:
    for node in _nodes(source):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _find_class(
    source: Union[SourceFile, ast.AST], name: str
) -> Optional[ast.ClassDef]:
    for node in _nodes(source):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _tokens_in_order(
    nodes: Sequence[ast.AST], table: Dict[str, str]
) -> List[str]:
    """Channel stream for identifier tokens, in source order."""
    stream: List[str] = []
    for node in nodes:
        token: Optional[str] = None
        if isinstance(node, ast.Name):
            token = node.id
        elif isinstance(node, ast.Attribute):
            token = node.attr
        if token is None:
            continue
        channel = table.get(token)
        if channel is not None:
            stream.append(channel)
    return stream


def _body_nodes(func: ast.FunctionDef) -> List[ast.AST]:
    """Position-ordered nodes of the *body* only — the batch engine's
    default-binding idiom (``l1_sets=l1_sets``) repeats every hot name
    in the signature, which must not count as a memory-path touch."""
    nodes: List[ast.AST] = []
    for stmt in func.body:
        nodes.extend(iter_nodes_in_order(stmt))
    return nodes


def _first_occurrence(stream: Sequence[str]) -> Tuple[str, ...]:
    seen: List[str] = []
    for channel in stream:
        if channel not in seen:
            seen.append(channel)
    return tuple(seen)


def _data_sequence(func: ast.FunctionDef) -> Tuple[str, ...]:
    return _first_occurrence(_tokens_in_order(_body_nodes(func),
                                              DATA_CHANNELS))


def _fused_loop(func: ast.FunctionDef) -> Optional[ast.For]:
    """The pass's fused loop: the ``for`` that names ``l1_set``, the
    L1 set of each access (the set lists are gathered above it in
    construction order, not access order)."""
    for node in ast.walk(func):
        if isinstance(node, ast.For):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id == "l1_set":
                    return node
    return None


def _pass_sequence(func: ast.FunctionDef) -> Optional[Tuple[str, ...]]:
    """First-occurrence channel order of the pass's fused loop body and
    of everything after the loop: the body serves the caches, the
    statements after it the DRAM rows and the tallies.  The loop's
    target names the gathered sets in zip order, not access order, so
    it does not count.  None when there is no fused loop."""
    loop = _fused_loop(func)
    if loop is None:
        return None
    end = (loop.end_lineno or loop.lineno, loop.end_col_offset or 0)
    nodes = [n for stmt in loop.body for n in iter_nodes_in_order(stmt)]
    nodes += [
        n for n in _body_nodes(func) if (n.lineno, n.col_offset) >= end
    ]
    return _first_occurrence(_tokens_in_order(nodes, DATA_CHANNELS))


def _flush_charges_ring(batch: SourceFile) -> bool:
    """True when the tally flush exists and charges remote transfers
    the ``_TRANSFER_BYTES`` payload."""
    func = _find_function(batch, RING_FLUSH_FUNC)
    return func is not None and any(
        isinstance(node, ast.Name) and node.id == "_TRANSFER_BYTES"
        for node in ast.walk(func)
    )


def _ring_payload_literal(func: ast.FunctionDef) -> Optional[int]:
    """The integer payload passed to ``ring.record_transfer`` in the
    staged data stage."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name.endswith("record_transfer"):
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, int
                    ):
                        return arg.value
    return None


def _module_int(tree: ast.Module, name: str) -> Optional[int]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                return node.value.value
    return None


def _calls_function(func: ast.FunctionDef, callee: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (call_name(node) or "").split(".")[-1] == callee
        for node in ast.walk(func)
    )


#: Placement primitives the bulk fault path must never call: it inlines
#: the audited ``map_single`` and reservation sequences and updates the
#: page-table, region and fault counters itself, which a real placement
#: call would bypass or double-count.
FAULT_PLACEMENT_CALLS = (
    "place",
    "map_single",
    "map_page",
    "map_into_region",
    "ensure_region",
)


def _test_requires(test: ast.expr, guard: str) -> bool:
    """True when ``test`` can only be truthy if the name ``guard`` is:
    the bare name, or an ``and`` chain with it as a direct operand.
    Merely reading it (``not guard``, ``guard or x``) proves nothing."""
    if isinstance(test, ast.Name):
        return test.id == guard
    if not (isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)):
        return False
    return any(
        isinstance(v, ast.Name) and v.id == guard for v in test.values
    )


def _guarded_node_ids(root: ast.AST, guard: str) -> set:
    """ids of nodes under an ``if`` whose test requires ``guard``.

    Only ``if`` *bodies* count — the ``else`` branch of a guarded test
    is by construction the unguarded path.
    """
    guarded: set = set()

    def visit(node: ast.AST, active: bool) -> None:
        if isinstance(node, ast.If):
            body_active = active or _test_requires(node.test, guard)
            for child in node.body:
                visit(child, body_active)
            for child in node.orelse:
                visit(child, active)
            return
        if active:
            guarded.add(id(node))
        for child in ast.iter_child_nodes(node):
            visit(child, active)

    visit(root, False)
    return guarded


#: Names every assignment to ``bulk_proven`` must read: the capability
#: gate and the audit table of ``place`` implementations.
BULK_PROOF_NAMES = frozenset({"fault_batch_eligible", "AUDITED_PLACE"})


def _bulk_proof_gap(
    source: Union[SourceFile, ast.AST]
) -> Optional[ast.AST]:
    """None when ``bulk_proven`` is assigned and *every* binding of it
    is an assignment from an expression that reads both
    ``fault_batch_eligible`` and the ``AUDITED_PLACE`` audit table — the
    static proof the bulk fault path's fence relies on.  Otherwise the
    first binding that breaks the proof (a bare ``bulk_proven = True``
    after it voids it), or the source itself when there is no proof."""
    proven: set = set()
    bindings: List[ast.AST] = []
    for node in _nodes(source):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(
            node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)
        ):
            targets, value = [node.target], node.value
        elif (
            isinstance(node, ast.Name)
            and node.id == "bulk_proven"
            and isinstance(node.ctx, ast.Store)
        ) or (isinstance(node, ast.arg) and node.arg == "bulk_proven"):
            bindings.append(node)
            continue
        else:
            continue
        names = {
            n.id for n in ast.walk(value) if isinstance(n, ast.Name)
        } if value is not None else set()
        if BULK_PROOF_NAMES <= names:
            proven.update(
                id(n) for t in targets for n in ast.walk(t)
            )
    if not bindings:
        return source if isinstance(source, ast.AST) else source.tree
    return next((n for n in bindings if id(n) not in proven), None)


def _check_fault_batching(batch: SourceFile) -> Iterator[Finding]:
    """``batch_faults`` (when present) is the bulk fault path: it may
    inline the audited placement sequence, but never call a placement
    primitive or touch a data-path channel, and it may only run behind
    the ``bulk_proven`` fence — every call sits under an ``if`` that
    requires ``bulk_proven``, itself derived from the ``AUDITED_PLACE``
    proof."""
    func = _find_function(batch, "batch_faults")
    if func is None:
        # Pre-fault-batching tree (or fixture): nothing to check.
        return
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = (call_name(node) or "").split(".")[-1]
            if callee in FAULT_PLACEMENT_CALLS:
                yield _finding(
                    batch,
                    node,
                    f"batch_faults() calls {callee}() directly; the "
                    "bulk fault path inlines the audited map_single "
                    "sequence with its own counter updates, which a "
                    "placement call would bypass or double-count",
                )
    touched = _tokens_in_order(_body_nodes(func), DATA_CHANNELS)
    if touched:
        yield _finding(
            batch,
            func,
            "batch_faults() touches data-path channels "
            f"({' -> '.join(_first_occurrence(touched))}); the fault "
            "path resolves mappings only — replay cost accounting "
            "stays in the data pass",
        )
    guarded = _guarded_node_ids(batch.tree, "bulk_proven")
    for node in batch.nodes():
        if (
            isinstance(node, ast.Call)
            and (call_name(node) or "").split(".")[-1] == "batch_faults"
            and id(node) not in guarded
        ):
            yield _finding(
                batch,
                node,
                "batch_faults() is called outside the bulk_proven "
                "fence; the inlined bulk fault path is only sound for "
                "policies whose place() passed the AUDITED_PLACE "
                "identity proof",
            )
    gap = _bulk_proof_gap(batch)
    if gap is not None:
        yield _finding(
            batch,
            func if gap is batch.tree else gap,
            "batch_faults() inlines placement but bulk_proven is not "
            "derived from fault_batch_eligible and the AUDITED_PLACE "
            "table at every assignment; the fence no longer proves the "
            "inlined placement matches the policy",
        )


def _check_epoch_routing(src: SourceFile) -> Iterator[Finding]:
    """``policy.on_epoch`` may fire only inside ``close_epoch``: the
    epoch semantics (remote ratio, index advance, page-stats reset)
    must stay single-sourced for both engines."""
    funcs = [
        node
        for node in src.nodes()
        if isinstance(node, ast.FunctionDef)
    ]
    covered = set()
    for func in funcs:
        if func.name == "close_epoch":
            for node in ast.walk(func):
                covered.add(id(node))
    for node in src.nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "on_epoch"
            and id(node) not in covered
        ):
            yield _finding(
                src,
                node,
                "policy.on_epoch called outside close_epoch(); both "
                "engines must share the single epoch-closing sequence "
                "(remote ratio, index advance, page-stats reset)",
            )


@register("RPR004", "engine-parity")
def check_engine_parity(project: Project) -> Iterator[Finding]:
    """The staged ``DataStage`` and the batched data pass must consult
    the memory hierarchy in the same normalized order, the windows must
    leave the data path to the pass and share one translation head,
    both engines must agree on the ring payload constant and route
    epochs through ``close_epoch`` (DESIGN.md §7)."""
    pipeline = project.source(PIPELINE_FILE)
    batch = project.source(BATCH_FILE)
    if pipeline is None or batch is None:
        # Single-engine project (or fixture): nothing to compare.
        return

    # --- reference sequence: the staged DataStage.process ---
    data_stage = _find_class(pipeline, "DataStage")
    staged_process = (
        _find_function(data_stage, "process") if data_stage else None
    )
    if staged_process is None:
        yield _finding(
            pipeline,
            pipeline.tree,
            "DataStage.process not found; the engine-parity reference "
            "sequence cannot be extracted",
        )
        return
    reference = _data_sequence(staged_process)
    ring_deferred = tuple(ch for ch in reference if ch != "RING")
    flush_charges_ring = _flush_charges_ring(batch)

    # --- the batched copy: the per-chunk data pass ---
    func = _find_function(batch, BATCH_DATA_FUNC)
    if func is None:
        yield _finding(
            batch,
            batch.tree,
            f"batched data pass {BATCH_DATA_FUNC}() not found; the "
            "DESIGN.md §7 parity argument names one per-chunk pass",
        )
    else:
        sequence = _pass_sequence(func)
        if sequence is None:
            yield _finding(
                batch,
                func,
                f"{BATCH_DATA_FUNC}() has no fused loop over l1_set; "
                "cannot extract its memory-path sequence",
            )
        elif sequence == ring_deferred:
            # A tallying pass: the flush charges the ring per pair.
            if not flush_charges_ring:
                yield _finding(
                    batch,
                    func,
                    f"{BATCH_DATA_FUNC}() defers ring accounting to "
                    f"{RING_FLUSH_FUNC}(), which is missing or never "
                    "charges _TRANSFER_BYTES; remote transfers would "
                    "vanish from the ring",
                )
        elif sequence != reference:
            yield _finding(
                batch,
                func,
                f"memory-path order of {BATCH_DATA_FUNC}() is "
                f"{' -> '.join(sequence)} but the staged "
                f"DataStage.process order is {' -> '.join(reference)}; "
                "the engines have drifted (DESIGN.md §7 bit-identity)",
            )

    # --- the windows leave the data path to the pass ---
    for name in WINDOW_FUNCS:
        func = _find_function(batch, name)
        if func is None:
            continue
        touched = _first_occurrence(
            _tokens_in_order(_body_nodes(func), WINDOW_FORBIDDEN)
        )
        if touched:
            yield _finding(
                batch,
                func,
                f"{name}() touches data-path state "
                f"({' -> '.join(touched)}); windows record each "
                f"access's address and home for {BATCH_DATA_FUNC}(), "
                "the one batched copy of the data path",
            )

    # --- ring payload constant ---
    staged_payload = _ring_payload_literal(staged_process)
    batch_payload = _module_int(batch.tree, "_TRANSFER_BYTES")
    if (
        staged_payload is not None
        and batch_payload is not None
        and staged_payload != batch_payload
    ):
        yield _finding(
            batch,
            batch.tree,
            f"ring transfer payload drifted: staged DataStage sends "
            f"{staged_payload} bytes, batched _TRANSFER_BYTES is "
            f"{batch_payload}",
        )

    # --- translation head sharing ---
    for name in WINDOW_FUNCS:
        func = _find_function(batch, name)
        if func is not None and not _calls_function(func, "translate_head"):
            yield _finding(
                batch,
                func,
                f"{name}() does not route translation through "
                "translate_head(); a second inlined translation copy "
                "breaks the parity argument",
            )

    # --- bulk fault path ---
    yield from _check_fault_batching(batch)

    # --- epoch routing, in both engine files ---
    yield from _check_epoch_routing(pipeline)
    yield from _check_epoch_routing(batch)
    batch_calls_close = any(
        isinstance(node, ast.Call)
        and (call_name(node) or "").split(".")[-1] == "close_epoch"
        for node in batch.nodes()
    )
    if not batch_calls_close:
        yield _finding(
            batch,
            batch.tree,
            "the batched engine never calls close_epoch(); epoch "
            "callbacks must go through the shared sequence in "
            "sim/pipeline.py",
        )
