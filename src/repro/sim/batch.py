"""The batched replay engine: vectorized steady-state trace windows.

The staged :class:`~repro.sim.pipeline.AccessPipeline` replays one
access at a time through four Python closures; every cache-line access
pays interpreter dispatch for work that is, in the steady state, pure
array arithmetic.  This module partitions each chunk of the trace into
*steady-state windows* — maximal runs of accesses whose pages are
already mapped, which cross no epoch or kernel boundary and trigger no
policy callback — and replays each window with NumPy array ops plus a
tightly fused Python loop over precomputed lists:

* **page-base derivation and classification** — one ``np.unique`` over
  the chunk's granule-page keys, one page-table lookup per unique page,
  and vectorized physical address / home-chiplet / set-index / DRAM-row
  derivation for every window access from the per-unique arrays;
* **translation** — per-requester run-length compression over
  translation units: the *head* of each run calls ``translate_head``,
  the one inline of the single-size-class ``TranslationPath.access``
  and ``PageWalker.walk`` (TLB probes, page walks through the walk
  caches, Remote Tracker updates, fills through
  ``SetAssociativeTLB.insert``), and the tail is bulk-accounted as
  guaranteed L1 TLB hits (the head leaves the entry present, valid-bit
  set and MRU, and no other access of that requester intervenes within
  the run);
* **data path** — recorded, not replayed: each window writes the
  physical address and home chiplet of its accesses into per-chunk
  buffers, and at the end of the chunk one :class:`DataPass` serves
  the whole chunk in trace order (L1 -> remote cache -> home L2 ->
  DRAM), mutating the live LRU sets directly;
* **accounting** — ``np.bincount`` reductions for per-structure and
  per-page statistics, preserving first-touch insertion order of the
  page-stats dict (policies may iterate it).

Windows shorter than ``MIN_VEC`` replay through ``small_window``, the
same steps as plain Python loops.  Anything that is not steady state
is replayed exactly, one access at a time, as the one-access window
``small_window(rel, rel + 1)``: an access whose page key is unresolved
goes through the staged ``FaultStage.process`` (which faults the page
in through the policy and enriches exhaustion errors, or returns the
live mapping of a page mapped below the granule), then through the
same translation and accounting code as every short window.
Epoch/kernel callbacks fire at chunk boundaries only (chunks are
clipped so boundaries never fall inside a window).  Multi-page-TLB
runs, and runs with a custom per-access ``Instrumentation``, use the
staged pipeline entirely (see :mod:`repro.sim.engine`).

**One data pass per chunk**: inside a chunk nothing but the data path
reads or fills a data cache or a DRAM row — migrations flush in
``close_epoch``, between chunks, inside ``Machine.flush_batch()`` — so
serving the chunk's accesses after its translation and faults, in the
same trace order, leaves every set and open row as per-access replay
would.  A flush that does come mid-chunk (a policy migrating from its
``place``) first has the pass serve the accesses replayed so far
(``Machine.before_flush``), and an abort serves the accesses before the
failing one, as the staged pipeline costs them.

**Tallies, not costs**: the data pass counts *how* each access was
served — L1, remote cache, home L2, DRAM row hit or row miss — per
``(home, requester)`` chiplet pair instead of costing it on the spot.
``flush_tallies`` turns the counts into data cycles, cache and DRAM hit
counters and ring traffic once, at run end: each is a sum over accesses
whose terms depend only on the pair and the outcome, so regrouping it
is integer-exact.  The same counts, the TLB path counters
and a walk-latency tally give the built-in
:class:`~repro.sim.telemetry.TelemetryCollector` every number of its
snapshot, so a ``--telemetry`` run replays through the same windows
with no per-access callbacks: faults report through the shared
``FaultStage`` (and, on the bulk path, one ``on_fault`` per fault),
epochs through the shared ``close_epoch``.

**The bulk fault path** (``batch_faults``): first-touch faults are
resolved a chunk at a time when the run is ``bulk_proven``.  That takes
two things.  The policy's unbound ``place`` is literally one of the
audited in-tree implementations listed in :data:`AUDITED_PLACE`, whose
bodies are by inspection one of two sequences, with no policy state
read or written: ``pager.map_single(vaddr, granule, requester,
alloc_id, pool_for(allocation))``, or, for static paging above the
granule, the reservation of Figure 5 (``region_at``, else
``ensure_region`` on the requester, then ``map_into_region``).  And the
run has no bounded capacity, no host eviction and no coalescing units.  One ``np.unique``
over the not-yet-replayed tail of the chunk then finds each unmapped
page's *first* access — precisely the PMM first-touch owner sample —
and the batch inlines the audited sequence per page, in trace order of
those first touches: log the fault buffer, pop a frame from the
allocator free list (a region's frame at the region's first touch),
insert the PTE, drain the buffer.  Statement for statement these are
the machine mutations ``place`` would have made, in the same order
(allocation order included), minus the policy dispatch and the checks
whose outcomes are already known.  Because that placement reads no
policy state and touches no translation/data/cache state, hoisting the
faults ahead of the intervening steady-state accesses is unobservable:
without coalescing a page's translation unit is its own PTE, and no
access reaches a page before its first touch.  The one effect that
crosses pages, promotion, is never hoisted: a fault that would fill
its region is *deferred* to the one-access window at its own trace
position, where ``FaultStage.process`` promotes the region.  Any other
policy — a subclass override of ``place`` included, however
innocent-looking — faults one access at a time through the staged
fault stage.

**Why results stay bit-identical** (DESIGN.md section 7): within a
window no page-table mutation can occur, so resolving records up front
equals resolving them per access; translation, data and accounting
touch disjoint machine state, so replaying a window stage-major — and
the data path chunk-major — equals replaying it access-major; run tails are provably L1 TLB hits with zero
latency; and every counter flush is integer-exact.  The page table's
``generation``/event log guarantees staleness is *detected* rather than
assumed away: any mutation between windows re-resolves exactly the
affected page keys.
"""

from __future__ import annotations

import gc
from itertools import count, repeat
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.address import FINE_INTERLEAVE, InterleavePolicy
from ..cache.cache import SetAssociativeCache
from ..cache.remote_cache import RemoteCachingScheme
from ..gmmu.walker import (
    _LEVEL_SPANS,
    WALK_CACHE_HIT_CYCLES,
    PtePlacement,
)
from ..mem.dram import ROW_SIZE
from ..tlb.units import COALESCE_WINDOW_PAGES
from ..units import PAGE_2M, PAGE_64K
from ..vm.page_table import MappingRecord, Region
from .machine import Machine
from .pipeline import FaultStage, SimState, close_epoch
from .telemetry import TelemetryCollector

#: Accesses per chunk.  Chunks are additionally clipped at kernel starts
#: and epoch boundaries so callbacks only ever fire between chunks.
CHUNK = 4096

#: Minimum window length worth vectorizing; shorter fault-free runs go
#: through the fused scalar fast path instead (the fixed NumPy setup
#: cost of a window would exceed the interpreter cost it saves).
MIN_VEC = 24

#: Remote-transfer payload in bytes (one 128B line plus header), matching
#: ``DataStage``'s ``ring.record_transfer(home, requester, 160)``.
_TRANSFER_BYTES = 160

#: ``(module, qualname)`` of every unbound ``place`` implementation whose
#: body is — by direct inspection — exactly one of two sequences, with
#: no policy state read or written and no other effect:
#: ``pager.map_single(vaddr, granule, requester, allocation.alloc_id,
#: pool_for(allocation))``, or (``StaticPaging.place`` above the
#: granule) the reservation sequence ``region_at(base)``, else
#: ``ensure_region(base, page_size, granule, requester,
#: pool_for(allocation))``, then ``map_into_region(vaddr, region,
#: allocation.alloc_id)``.  ``granule`` is the run's
#: ``min(native_sizes())``, so the audit covers the class's own
#: ``native_sizes`` too (64KB for Ideal, MGvm and GRIT, ``base_size``
#: for static paging).  This table is the one proof that a policy's
#: faults may be batched: only these may take ``batch_faults``, which
#: inlines that sequence (frame allocation + page-table insert) without
#: calling the policy at all.  A subclass override never matches (its
#: ``__qualname__`` names the subclass), so it faults through the staged
#: fault stage one access at a time.  Adding an entry here asserts you
#: have audited the method body against the sequences above.
AUDITED_PLACE = frozenset(
    {
        ("repro.policies.static_paging", "StaticPaging.place"),
        ("repro.policies.ideal", "IdealPolicy.place"),
        ("repro.policies.mgvm", "MgvmPolicy.place"),
        ("repro.policies.grit", "GritPolicy.place"),
    }
)


def _set_table(
    caches: Sequence[SetAssociativeCache], spare: bool = False
) -> np.ndarray:
    """Every LRU set of ``caches``, cache-major, in an object array, so
    one fancy index gathers the set list of each access of a chunk;
    ``spare`` appends a ``None`` slot for accesses that skip the level."""
    sets = [s for cache in caches for s in cache._sets]
    table = np.empty(len(sets) + spare, dtype=object)
    for k, entries in enumerate(sets):
        table[k] = entries
    return table


class DataPass:
    """The batched engine's one copy of the data path.

    ``data_pass(ch, pd, hm)`` serves a run of accesses, given as the
    requester, physical address and home chiplet of each, in trace
    order: the requester's L1, then — for a remote line, under remote
    caching — the requester's remote cache, then the home L2, and the
    DRAM open row on an L2 miss.  It counts how each access was served
    per ``(home, requester)`` pair instead of costing it (see "Tallies,
    not costs" above); ``flush_tallies()`` folds those counts into the
    machine's counters once, at run end.

    The caches are probed and filled in one loop over the set lists
    gathered up front.  DRAM comes after the loop: an L2 miss is a row
    hit exactly when its row is the one its channel last opened, so a
    stable sort of the misses by channel, seeded from ``open_row``,
    decides every row outcome at once.
    """

    def __init__(
        self, machine: Machine, telem: Optional[TelemetryCollector]
    ) -> None:
        config = machine.config
        nc = config.num_chiplets
        l1_caches = machine.l1_caches
        l2_caches = machine.l2_caches
        remote_caches = machine.remote_caches
        ring = machine.ring
        dram = machine.dram
        l1_latency = config.l1_latency
        l2_latency = config.l2_latency
        line_size = config.cache_line
        cpc = machine.layout.channels_per_chiplet

        l1_ns = l1_caches[0].num_sets
        l2_ns = l2_caches[0].num_sets
        l1_ways = l1_caches[0].ways
        l2_ways = l2_caches[0].ways
        l1_table = _set_table(l1_caches)
        l2_table = _set_table(l2_caches)
        # Without remote caches no access reaches the ``rc_*`` names.
        use_rc = remote_caches is not None
        if use_rc:
            rc_ns = remote_caches[0].cache.num_sets
            rc_ways = remote_caches[0].cache.ways
            rc_table = _set_table([rc.cache for rc in remote_caches], True)
            #: The spare slot: a local line never probes the remote cache.
            rc_local = len(rc_table) - 1
            rc_insert_all = (
                type(remote_caches[0]).should_insert
                is RemoteCachingScheme.should_insert
            )

        hops_tab = [[ring.hops(s, d) for d in range(nc)] for s in range(nc)]
        ring_traffic = ring.traffic_bytes
        ring_traffic_get = ring_traffic.get
        rcost_tab = [[2 * ring.hop_cycles * h for h in row]
                     for row in hops_tab]
        open_row = dram._open_row
        open_row_get = open_row.get
        ch_accesses = dram.channel_accesses
        row_hit_c = dram.row_hit_cycles
        row_miss_c = dram.row_miss_cycles

        # --- service tallies: how each access was served, per pair ---
        #: ``tally[outcome * n_pairs + home * nc + requester]``, with
        #: outcomes L1 hit, remote-cache hit, home-L2 hit, DRAM row hit
        #: and DRAM row miss, in that order.
        n_pairs = nc * nc
        tally = np.zeros(5 * n_pairs, dtype=np.int64)

        def data_pass(ch: np.ndarray, pd: np.ndarray, hm: np.ndarray) -> None:
            """Serve the accesses ``(ch[k], pd[k], hm[k])`` in order."""
            nonlocal tally
            line = pd // line_size
            hashed = (
                (
                    line.astype(np.uint64) * np.uint64(0x9E3779B1)
                    & np.uint64(0xFFFFFFFF)
                )
                >> np.uint64(16)
            ).astype(np.int64)
            l1_list = l1_table[ch * l1_ns + hashed % l1_ns].tolist()
            l2_list = l2_table[hm * l2_ns + hashed % l2_ns].tolist()
            if use_rc:
                rc_list = rc_table[
                    np.where(hm != ch, ch * rc_ns + hashed % rc_ns, rc_local)
                ].tolist()
                ch_l = ch.tolist()
                pd_l = pd.tolist()
            else:
                rc_list = repeat(None)
            # Positions served by the L1 or the remote cache, and those
            # that missed the home L2; every other access hit the L2.
            l1_hit: List[int] = []
            rc_hit: List[int] = []
            l2_miss: List[int] = []
            for k, ln, l1_set, rc_set, l2_set in zip(
                count(), line.tolist(), l1_list, rc_list, l2_list
            ):
                if ln in l1_set:
                    l1_set.remove(ln)
                    l1_set.append(ln)
                    l1_hit.append(k)
                    continue
                if len(l1_set) >= l1_ways:
                    del l1_set[0]
                l1_set.append(ln)
                if rc_set is not None:
                    if ln in rc_set:
                        rc_set.remove(ln)
                        rc_set.append(ln)
                        rc_hit.append(k)
                        continue
                    if rc_insert_all or remote_caches[ch_l[k]].should_insert(
                        pd_l[k]
                    ):
                        if len(rc_set) >= rc_ways:
                            del rc_set[0]
                        rc_set.append(ln)
                if ln in l2_set:
                    l2_set.remove(ln)
                    l2_set.append(ln)
                else:
                    if len(l2_set) >= l2_ways:
                        del l2_set[0]
                    l2_set.append(ln)
                    l2_miss.append(k)

            outcome = np.full(len(line), 2, dtype=np.int64)
            if l1_hit:
                outcome[l1_hit] = 0
            if rc_hit:
                outcome[rc_hit] = 1
            if l2_miss:
                miss = np.array(l2_miss, dtype=np.int64)
                pm = pd[miss]
                chan = hm[miss] * cpc + (pm // FINE_INTERLEAVE) % cpc
                order = np.argsort(chan, kind="stable")
                chan = chan[order]
                row = (pm // ROW_SIZE)[order]
                head = np.empty(len(chan), dtype=bool)
                head[0] = True
                np.not_equal(chan[1:], chan[:-1], out=head[1:])
                heads = np.flatnonzero(head)
                chans = chan[heads].tolist()
                # Each miss finds open the row of the channel's previous
                # miss; the first finds the row left open before.
                prev = np.empty_like(row)
                prev[1:] = row[:-1]
                prev[heads] = [open_row_get(c, -1) for c in chans]
                outcome[miss[order]] = np.where(row == prev, 3, 4)
                tails = np.append(heads[1:], len(chan))
                # Channels in order of first miss, so a newly opened
                # channel enters ``open_row`` where per-access replay
                # would have put it.
                first = np.argsort(order[heads], kind="stable").tolist()
                lasts = row[tails - 1].tolist()
                sizes = (tails - heads).tolist()
                for g in first:
                    c = chans[g]
                    open_row[c] = lasts[g]
                    ch_accesses[c] += sizes[g]
            tally += np.bincount(
                outcome * n_pairs + hm * nc + ch, minlength=5 * n_pairs
            )

        def flush_tallies() -> Tuple[int, int]:
            """Fold the tallies into the machine's cache, DRAM and ring
            counters (and the telemetry collector, if any) and clear
            them; returns the run's ``(data_cycles, remote_on_ring)``.

            Per pair, an L1 miss went on to the remote cache (remote
            pairs, under remote caching) and, unless served there, to
            the home L2 and maybe DRAM; whatever got past the remote
            cache of a remote pair crossed the ring.  The cycles are
            ``DataStage``'s per-access costs grouped by pair and
            outcome.
            """
            t_l1, t_rc, t_l2, t_rh, t_rm = tally.reshape(5, n_pairs).tolist()
            data = 0
            on_ring = 0
            for pr in range(n_pairs):
                l1h, rch, l2h = t_l1[pr], t_rc[pr], t_l2[pr]
                rh, rmiss = t_rh[pr], t_rm[pr]
                beyond = l2h + rh + rmiss
                if not (l1h or rch or beyond):
                    continue
                hm, c = divmod(pr, nc)
                l1_caches[c].hits += l1h
                l1_caches[c].misses += rch + beyond
                if hm != c:
                    if use_rc:
                        rc = remote_caches[c]
                        rc.remote_lookups += rch + beyond
                        rc.remote_hits += rch
                        rc.cache.hits += rch
                        rc.cache.misses += beyond
                    if beyond:
                        nbytes = _TRANSFER_BYTES * beyond
                        key = (hm, c)
                        ring_traffic[key] = ring_traffic_get(key, 0) + nbytes
                        ring.total_bytes += nbytes
                        ring.hop_bytes += hops_tab[hm][c] * nbytes
                        on_ring += beyond
                    if telem is not None:
                        telem.add_ring_transfers(c, hm, l1h + rch + beyond)
                l2_caches[hm].hits += l2h
                l2_caches[hm].misses += rh + rmiss
                dram.accesses += rh + rmiss
                dram.row_hits += rh
                via_l2 = rcost_tab[c][hm] + l2_latency
                for served, cost, n in (
                    ("l1", l1_latency, l1h),
                    ("remote_cache", l2_latency, rch),
                    ("home_l2", via_l2, l2h),
                    ("dram", via_l2 + row_hit_c, rh),
                    ("dram", via_l2 + row_miss_c, rmiss),
                ):
                    data += cost * n
                    if telem is not None:
                        telem.add_data(served, cost, n)
            tally[:] = 0
            return data, on_ring

        self.data_pass = data_pass
        self.flush_tallies = flush_tallies


class BatchedPipeline:
    """Replays a trace through vectorized windows with exact
    per-access fallback.

    Drop-in alternative to :class:`~repro.sim.pipeline.AccessPipeline`:
    same constructor state, same ``run()`` contract, bit-identical
    :class:`SimState` at the end and, given a ``telemetry`` collector,
    the same snapshot (filled from run-level counts, not per-access
    hooks).  Additionally exposes ``fast_path_fraction`` — the share of
    accesses that needed no fault lookup (replayed in vectorized or
    short windows over already-resolved pages) — and
    ``fault_batch_fraction`` — the share of page faults resolved by the
    bulk fault path (None when the run was not ``bulk_proven``).
    """

    def __init__(
        self,
        state: SimState,
        telemetry: Optional[TelemetryCollector] = None,
    ) -> None:
        self.state = state
        #: The collector this run fills (None with telemetry off);
        #: ``_fold_result`` snapshots it.
        self.telemetry = telemetry
        self.fault_stage = FaultStage(state, telemetry)
        self.fast_path_fraction: Optional[float] = None
        self.fault_batch_fraction: Optional[float] = None

    def run(self) -> SimState:  # noqa: C901 - one fused hot path
        state = self.state
        telem = self.telemetry
        machine = state.machine
        config = machine.config
        trace = state.trace
        n = len(trace)
        caps = state.capabilities

        # --- trace arrays ---
        vaddrs = trace.vaddrs
        chiplets = trace.chiplets
        va_np = np.asarray(vaddrs, dtype=np.int64)
        ch_np = np.asarray(chiplets, dtype=np.int64)

        # --- machine bindings ---
        nc = config.num_chiplets
        page_table = machine.page_table
        pt_lookup = page_table.lookup
        paths = machine.paths
        walkers = machine.walkers
        l2_latency = config.l2_latency
        l2_tlb_latency = config.l2_tlb.latency
        #: (chiplet, size_class) -> that path's (L1, L2) TLB pair, so the
        #: inlined head translation skips the lazy-creation lookup.
        tlb_pairs = {}
        naive = state.interleave is InterleavePolicy.NAIVE
        data = DataPass(machine, telem)
        data_pass = data.data_pass

        # --- translation-unit flags and page granule ---
        coalescing = caps.coalescing
        pattern = caps.pattern_coalescing
        ideal = caps.ideal_translation
        granule = min(state.policy.native_sizes())
        shift = granule.bit_length() - 1
        pt_tables = page_table._tables

        def unit_tuple(va: int, rec) -> tuple:
            """``unit_for`` as a plain ``(kind, tag, coverage,
            size_class, page_bit)`` tuple.

            Same decision tree as :func:`repro.tlb.units.unit_for`
            (kind 0 = native/ideal, 1 = coalesced, 2 = pattern), but
            without constructing a frozen dataclass per resolution —
            the hot loops resolve every unique page of every chunk and
            re-resolve on each page-table event, so allocation cost
            here is material.
            """
            if ideal:
                tag = va - va % PAGE_2M
                return (0, tag, PAGE_2M, PAGE_2M, 0)
            ps = rec.page_size
            if ps > PAGE_64K or not (coalescing or pattern):
                return (0, rec.va_base, ps, ps, 0)
            window = COALESCE_WINDOW_PAGES * ps
            if coalescing:
                group = rec.contiguity_size
                if rec.region is not None and group > ps:
                    span = window if group > window else group
                    off = rec.va_base - rec.contiguity_base
                    base = rec.contiguity_base + off - off % span
                    return (1, base, span, ps, (rec.va_base - base) // ps)
            if pattern:
                base = rec.va_base - rec.va_base % window
                return (2, base, window, ps, (rec.va_base - base) // ps)
            return (0, rec.va_base, ps, ps, 0)

        def window_mask(kind, tag, coverage, size_class, pb, rec) -> int:
            """``valid_mask_for`` for coalesced/pattern units (kind
            1/2; native and ideal units are always mask ``1``).

            Probes the page table's per-size bucket directly: only
            PTEs of exactly ``size_class`` can contribute valid bits,
            and promotion removes the base PTEs it replaces, so sizes
            never overlap a vaddr.
            """
            table = pt_tables.get(size_class)
            if table is None:
                return 1 << pb
            probe = table.get
            base_vpn = tag // size_class
            require_region = rec.region if kind == 1 else None
            mask = 0
            for i in range(coverage // size_class):
                cand = probe(base_vpn + i)
                if cand is None:
                    continue
                if (
                    require_region is not None
                    and cand.region is not require_region
                ):
                    continue
                mask |= 1 << i
            return mask | (1 << pb)

        # --- page-walk bindings (PageWalker.walk, inlined) ---
        wcaches = [w.walk_cache for w in walkers]
        wdicts = [w.walk_cache._cache for w in walkers]
        wstats = [w.stats for w in walkers]
        wtrackers = [w.remote_tracker for w in walkers]
        wc_entries = wcaches[0]._entries
        local_ptes = walkers[0].placement is PtePlacement.LOCAL
        hop_c = walkers[0].hop_cycles
        #: step_tab[c][holder] = cycles for chiplet ``c`` to fetch a PTE
        #: line held by ``holder`` (L2 latency + two ring traversals).
        step_tab = [
            [
                l2_latency
                + 2 * min((h - c) % nc, (c - h) % nc) * hop_c
                for h in range(nc)
            ]
            for c in range(nc)
        ]
        span1, span2, span3 = _LEVEL_SPANS
        #: walk cycles -> walks, for the telemetry latency histograms
        walk_tally: Dict[int, int] = {}

        def walk_inline(
            c: int,
            vaddr: int,
            aid: int,
            leaf: int,
            # Bound as defaults so the loop body uses local loads
            # instead of closure-cell dereferences (hot path).
            wdicts=wdicts,
            wcaches=wcaches,
            wstats=wstats,
            step_tab=step_tab,
            wc_entries=wc_entries,
            local_ptes=local_ptes,
            nc=nc,
            span1=span1,
            span2=span2,
            span3=span3,
            wtrackers=wtrackers,
            walk_tally=walk_tally,
        ) -> int:
            """``PageWalker.walk`` with the walk cache, step-cost hash
            and stats updates inlined (same counters, same order), plus
            the walk-latency tally."""
            cache = wdicts[c]
            wc = wcaches[c]
            st = wstats[c]
            row = step_tab[c]
            cycles = 0
            for level, key in (
                (1, vaddr // span1),
                (2, vaddr // span2),
                (3, vaddr // span3),
                (4, vaddr // span3),
            ):
                if level < 4:
                    ck = (level, key)
                    if ck in cache:
                        cache.move_to_end(ck)
                        wc.hits += 1
                        cycles += WALK_CACHE_HIT_CYCLES
                        continue
                    wc.misses += 1
                    if len(cache) >= wc_entries:
                        cache.popitem(last=False)
                    cache[ck] = True
                holder = (
                    c
                    if local_ptes
                    else (key * 0x9E3779B1 + level) % nc
                )
                if holder != c:
                    st.remote_steps += 1
                else:
                    st.local_steps += 1
                cycles += row[holder]
            st.walks += 1
            st.total_cycles += cycles
            rt = wtrackers[c]
            if rt is not None:
                rt.update(aid, is_remote=leaf != c)
            walk_tally[cycles] = walk_tally.get(cycles, 0) + 1
            return cycles

        def translate_head(
            c: int,
            unit: tuple,
            rec,
            va: int,
            # Default-bound hot bindings (local loads instead of
            # closure-cell dereferences).
            paths=paths,
            tlb_pairs=tlb_pairs,
            window_mask=window_mask,
            walk_inline=walk_inline,
            l2_tlb_latency=l2_tlb_latency,
        ) -> int:
            """Translate ``va`` (translation unit ``unit`` of mapping
            ``rec``) for chiplet ``c``; returns the latency.

            An exact inline of the single-size-class
            :meth:`TranslationPath.access` path (batched runs never use
            multi-page TLBs): every hit/miss counter, LRU update, fill
            and walk happens in the same order, but without per-call
            lambda/result-object allocation.  The walk may be given any
            vaddr of ``rec``'s page: no page exceeds the 2MB leaf span,
            the finest span the walker reads, so they all walk alike.
            """
            kind, tag, coverage, size_class, pb = unit
            path = paths[c]
            pair = tlb_pairs.get((c, size_class))
            if pair is None:
                pair = path._tlbs(size_class)
                tlb_pairs[(c, size_class)] = pair
            l1t, l2t = pair
            es = l1t._sets[(tag // l1t.index_granule) % l1t.num_sets]
            e = es.get(tag)
            if e is not None and e.valid_mask >> pb & 1:
                es.move_to_end(tag)
                l1t.hits += 1
                path.l1_hits += 1
                return 0
            l1t.misses += 1
            es2 = l2t._sets[(tag // l2t.index_granule) % l2t.num_sets]
            e2 = es2.get(tag)
            l2_hit = e2 is not None and e2.valid_mask >> pb & 1
            if l2_hit:
                es2.move_to_end(tag)
                l2t.hits += 1
                path.l2_hits += 1
                latency = l2_tlb_latency
            else:
                l2t.misses += 1
                latency = l2_tlb_latency + walk_inline(
                    c, va, rec.alloc_id, rec.chiplet
                )
                path.walks += 1
            mask = (
                window_mask(kind, tag, coverage, size_class, pb, rec)
                if kind
                else 1
            )
            if not l2_hit:
                l2t.insert(tag, coverage, mask)
            l1t.insert(tag, coverage, mask)
            return latency

        per_structure = state.per_structure
        alloc_ids_present = list(per_structure)
        n_alloc = max(alloc_ids_present, default=0) + 1
        wants_stats = caps.wants_page_stats
        epoch_len = state.epoch_len
        on_kernel = state.policy.on_kernel
        kernel_starts = sorted(set(trace.kernel_starts))

        fault = self.fault_stage.process

        # --- bulk fault path proof ---
        # ``batch_faults`` may only hoist faults when translation units
        # never read the page table between faults (no coalescing
        # windows) and allocation can neither evict (host eviction
        # reorders under hoisting) nor exhaust mid-batch under bounded
        # capacity (the enriched error must carry the exact staged
        # access index and fault count).
        fault_batch_eligible = (
            not coalescing
            and not pattern
            and machine.pager.eviction is None
            and machine.allocator.free_capacity(0) is None
        )
        # On top of that, the policy's ``place`` must *literally* be one
        # of the audited in-tree implementations: equivalence to a
        # stateless granule-size map_single (or the reservation
        # sequence) is then a static fact, so the batch inlines that
        # sequence instead of calling the policy.  Anything else —
        # subclass overrides included — faults through the staged fault
        # stage, one access at a time.
        place_fn = type(state.policy).place
        bulk_proven = (
            fault_batch_eligible
            and (
                getattr(place_fn, "__module__", None),
                getattr(place_fn, "__qualname__", None),
            )
            in AUDITED_PLACE
        )
        bulk_faults = 0
        if bulk_proven:
            # The frame a first touch allocates.  Above the granule the
            # audited StaticPaging.place reserves a region of the
            # policy's page size (Figure 5); every other audited body
            # maps one granule page on its own.
            frame_size = (
                state.policy.page_size
                if place_fn.__qualname__ == "StaticPaging.place"
                else granule
            )
            reserving = frame_size > granule
            regions = machine.pager._regions
            pool_for = state.policy.pool_for
            allocations = state.allocations
            trace_alloc_ids = trace.alloc_ids
            allocator_allocate = machine.allocator.allocate
            # The allocator's per-(chiplet, size, pool) free lists: the
            # bulk loop pops these directly (``allocate`` minus the
            # constant-size validation) and only calls ``allocate`` to
            # split a fresh block when a list runs dry.
            alloc_free = machine.allocator._free
            buf_log = [b.log for b in machine.fault_buffers]
            buf_drain = [b.drain for b in machine.fault_buffers]

        # --- batch-owned accumulators (merged into state at the end) ---
        vec_translation = 0
        acc_remote_placement = 0
        acc_epoch_remote = 0
        acc_epoch_accesses = 0
        fast_accesses = 0

        def run_chunk(start: int, end: int) -> None:  # noqa: C901
            nonlocal vec_translation
            nonlocal acc_remote_placement, acc_epoch_remote
            nonlocal acc_epoch_accesses, fast_accesses

            m = end - start
            va_chunk = va_np[start:end]
            ch_chunk = ch_np[start:end]
            uniq, inv = np.unique(va_chunk >> shift, return_inverse=True)
            va_list = va_chunk.tolist()
            ch_list = ch_chunk.tolist()
            inv_list = inv.tolist()
            uniq_list = uniq.tolist()
            key_to_j = {k: j for j, k in enumerate(uniq_list)}
            n_uniq = len(uniq_list)

            recs: List[object] = [None] * n_uniq
            units: List[object] = [None] * n_uniq
            # Plain lists: ``resolve_j`` runs for every unique page and
            # again on every page-table event, where Python-list writes
            # beat NumPy scalar writes; ``vec_window`` materializes the
            # array views lazily (``vec_arrays``) when one goes stale.
            ok = [False] * n_uniq
            #: True when the key has *no* PTE at all — distinct from
            #: "mapped at sub-granule size": only truly unmapped keys
            #: are first-touch faults the batch path may resolve.
            unmapped = [False] * n_uniq
            #: True for an unmapped key whose fault would fill its
            #: region: ``batch_faults`` leaves it to the one-access
            #: window, whose fault promotes the region in trace order.
            deferred = [False] * n_uniq
            delta = [0] * n_uniq
            homec = [0] * n_uniq
            alloc = [0] * n_uniq
            vec_arrays = None
            #: Physical address and home chiplet of each access the
            #: windows replayed, for the chunk's one data pass.
            pd_buf = np.empty(m, dtype=np.int64)
            hm_buf = np.empty(m, dtype=np.int64)

            def resolve_j(j: int) -> None:
                nonlocal vec_arrays
                va_page = uniq_list[j] << shift
                rec = pt_lookup(va_page)
                vec_arrays = None
                if rec is None or rec.page_size < granule:
                    # Unmapped (or mapped at sub-granule size, where one
                    # key no longer identifies one record): a one-access
                    # ``small_window`` resolves each such access through
                    # the staged fault stage.
                    recs[j] = None
                    units[j] = None
                    ok[j] = False
                    unmapped[j] = rec is None
                    return
                recs[j] = rec
                units[j] = unit_tuple(va_page, rec)
                ok[j] = True
                unmapped[j] = False
                delta[j] = rec.paddr - rec.va_base
                homec[j] = rec.chiplet
                alloc[j] = rec.alloc_id

            page_table.drain_events()
            for j in range(n_uniq):
                resolve_j(j)
            last_gen = page_table.generation

            def drain_repairs() -> bool:
                """Re-resolve keys the page table mutated since the last
                call; True when a previously resolved key went stale (a
                new scalar position appeared behind the scan cursor)."""
                nonlocal last_gen
                if page_table.generation == last_gen:
                    return False
                went_stale = False
                lo = uniq_list[0]
                hi = uniq_list[-1]
                for base, size in page_table.drain_events():
                    k0 = base >> shift
                    k1 = (base + size - 1) >> shift
                    if k0 < lo:
                        k0 = lo
                    if k1 > hi:
                        k1 = hi
                    for k in range(k0, k1 + 1):
                        j = key_to_j.get(k)
                        if j is not None:
                            was_ok = ok[j]
                            resolve_j(j)
                            if was_ok and not ok[j]:
                                went_stale = True
                last_gen = page_table.generation
                return went_stale

            def vec_window(a: int, b: int) -> None:
                """Replay resolved accesses ``[start+a, start+b)``."""
                nonlocal vec_translation
                nonlocal acc_remote_placement, acc_epoch_remote
                nonlocal acc_epoch_accesses, vec_arrays

                ch_seg = ch_chunk[a:b]
                inv_seg = inv[a:b]

                # -- derived per-access arrays for this window --
                arrs = vec_arrays
                if arrs is None:
                    arrs = (
                        np.array(delta, dtype=np.int64),
                        np.array(homec, dtype=np.int64),
                        np.array(alloc, dtype=np.int64),
                    )
                    vec_arrays = arrs
                delta_np, homec_np, alloc_np = arrs
                paddr = va_chunk[a:b] + delta_np[inv_seg]
                if naive:
                    home = (paddr // FINE_INTERLEAVE) % nc
                else:
                    home = homec_np[inv_seg]
                remote = home != ch_seg
                pd_buf[a:b] = paddr
                hm_buf[a:b] = home

                # -- translation: per-requester run compression --
                tcyc = 0
                for c in range(nc):
                    sel = np.flatnonzero(ch_seg == c)
                    if not sel.size:
                        continue
                    useq = inv_seg[sel]
                    change = np.empty(useq.size, dtype=bool)
                    change[0] = True
                    if useq.size > 1:
                        np.not_equal(useq[1:], useq[:-1], out=change[1:])
                    head_pos = np.flatnonzero(change)
                    run_lens = np.diff(
                        np.append(head_pos, useq.size)
                    ).tolist()
                    path = paths[c]
                    for j, rl in zip(useq[head_pos].tolist(), run_lens):
                        tcyc += translate_head(
                            c, units[j], recs[j], uniq_list[j] << shift
                        )
                        if rl > 1:
                            # The head left the L1 TLB entry present,
                            # valid-bit set and MRU; the tail is pure L1
                            # hits at zero latency.  The head guarantees
                            # ``tlb_pairs`` holds this (c, size_class).
                            tails = rl - 1
                            tlb_pairs[(c, units[j][3])][0].hits += tails
                            path.l1_hits += tails
                vec_translation += tcyc

                # -- accounting: bincount reductions --
                aid_seg = alloc_np[inv_seg]
                totals = np.bincount(aid_seg, minlength=n_alloc)
                remotes = np.bincount(aid_seg[remote], minlength=n_alloc)
                for alloc_id in alloc_ids_present:
                    t = int(totals[alloc_id])
                    if t:
                        stats = per_structure[alloc_id]
                        stats[0] += t
                        stats[1] += int(remotes[alloc_id])
                rn = int(np.count_nonzero(remote))
                acc_remote_placement += rn
                acc_epoch_remote += rn
                acc_epoch_accesses += b - a

                if wants_stats:
                    pb = va_chunk[a:b] & ~np.int64(PAGE_64K - 1)
                    upb, first_idx, pinv = np.unique(
                        pb, return_index=True, return_inverse=True
                    )
                    counts = np.bincount(
                        pinv * nc + ch_seg, minlength=len(upb) * nc
                    ).tolist()
                    upb_list = upb.tolist()
                    page_stats = state.page_stats
                    # New pages must enter the dict in first-touch order
                    # (policies may iterate it), not in sorted-key order.
                    order = np.argsort(first_idx, kind="stable").tolist()
                    for t in order:
                        base = upb_list[t]
                        prow = page_stats.get(base)
                        if prow is None:
                            prow = [0] * nc
                            page_stats[base] = prow
                        off = t * nc
                        for q in range(nc):
                            prow[q] += counts[off + q]


            def small_window(
                a: int,
                b: int,
                # Default-bound hot bindings (local loads instead of
                # closure-cell dereferences).
                ch_list=ch_list,
                va_list=va_list,
                inv_list=inv_list,
                paths=paths,
                tlb_pairs=tlb_pairs,
                pd_buf=pd_buf,
                hm_buf=hm_buf,
                per_structure=per_structure,
                naive=naive,
                nc=nc,
                wants_stats=wants_stats,
                fault=fault,
                translate_head=translate_head,
            ) -> None:
                """Scalar replay of accesses [a, b).

                Exactly the semantics of ``vec_window`` — run-compressed
                translation, recorded data-path inputs, per-access
                accounting — but in plain Python, so short
                fault-to-fault runs (the first-touch wave of a workload
                faults every handful of accesses) skip the fixed NumPy
                setup of a vectorized window.

                An access whose key is unresolved — unmapped, or mapped
                below the granule — first goes through the staged
                ``fault`` binding (``FaultStage.process``), which faults
                the page in or returns its live mapping, and translates
                the exact unit of that mapping.  Such an access may
                mutate the page table, so the scan only ever hands it
                over as a one-access window.
                """
                nonlocal vec_translation
                nonlocal acc_remote_placement, acc_epoch_remote
                nonlocal acc_epoch_accesses
                tcyc = 0
                last_j = [-1] * nc
                last_aid = -1
                stats = None
                last_pb = -1
                counts = None
                page_stats = state.page_stats
                for p in range(a, b):
                    c = ch_list[p]
                    va = va_list[p]
                    j = inv_list[p]
                    rec = recs[j]
                    if rec is None:
                        rec = fault(start + p, c, va)
                        tcyc += translate_head(c, unit_tuple(va, rec), rec, va)
                    elif last_j[c] == j:
                        # Same unit as this requester's previous access
                        # in the window: a guaranteed zero-latency L1
                        # TLB hit (see vec_window's tail argument; the
                        # head populated ``tlb_pairs`` for this pair).
                        path = paths[c]
                        tlb_pairs[(c, units[j][3])][0].hits += 1
                        path.l1_hits += 1
                    else:
                        tcyc += translate_head(c, units[j], rec, va)
                        last_j[c] = j
                    pd = rec.paddr + (va - rec.va_base)
                    if naive:
                        hm = (pd // FINE_INTERLEAVE) % nc
                    else:
                        hm = rec.chiplet
                    pd_buf[p] = pd
                    hm_buf[p] = hm
                    aid = rec.alloc_id
                    if aid != last_aid:
                        stats = per_structure[aid]
                        last_aid = aid
                    stats[0] += 1
                    if hm != c:
                        acc_remote_placement += 1
                        stats[1] += 1
                        acc_epoch_remote += 1
                    acc_epoch_accesses += 1
                    if wants_stats:
                        page_base = va & ~(PAGE_64K - 1)
                        if page_base != last_pb:
                            counts = page_stats.get(page_base)
                            if counts is None:
                                counts = [0] * nc
                                page_stats[page_base] = counts
                            last_pb = page_base
                        counts[c] += 1
                vec_translation += tcyc

            def batch_faults(rel: int) -> None:
                """Resolve every first-touch fault in ``[rel, m)`` in bulk.

                One ``np.unique`` over the remaining positions yields,
                per still-unmapped page, the index of its *first* access
                — the PMM first-touch owner sample, vectorized.  Each
                fault then runs the audited placement sequence inline
                (see :data:`AUDITED_PLACE`), in trace order of those
                first touches: exactly ``FaultStage.process`` minus what
                the proof makes redundant — the miss lookup (keys are
                known unmapped), the policy dispatch (its body is the
                inlined statements below), the post-place lookup and
                granule check (we installed the PTE), and the per-fault
                event drain (the resolved state is written directly).
                Counter updates — buffer ``faults_logged``,
                ``mapped_pages``, ``generation``, ``region.mapped``,
                fault totals — are identical.  A fault that would fill
                its region is left unmapped and marked ``deferred``: the
                scan hands it to the staged fault stage at its own
                position, which promotes the region.  Only sound when
                the run is ``bulk_proven``.
                """
                nonlocal bulk_faults, last_gen, vec_arrays
                seg_uniq, seg_first = np.unique(
                    inv[rel:], return_index=True
                )
                todo = sorted(
                    (rel + first, j)
                    for j, first in zip(seg_uniq.tolist(), seg_first.tolist())
                    if unmapped[j] and not deferred[j]
                )
                table = page_table._table_for(granule)
                done = 0
                for pos, j in todo:
                    v = va_list[pos]
                    r = ch_list[pos]
                    page_base = v - (v % granule)
                    # The region's base when reserving, else page_base.
                    frame_base = v - (v % frame_size)
                    region = regions.get(frame_base) if reserving else None
                    if (
                        region is not None
                        and region.mapped == region.capacity - 1
                    ):
                        deferred[j] = True
                        continue
                    allocation = allocations[int(trace_alloc_ids[start + pos])]
                    buf_log[r](v, r)
                    # Wall time feeds only the telemetry snapshot
                    # (stripped before cache writes), as in FaultStage.
                    t0 = perf_counter() if telem is not None else 0.0  # repro-lint: ignore[RPR001]
                    pool = pool_for(allocation)
                    if region is None:
                        # One granule page, or a region's whole frame at
                        # the region's first touch.
                        fl = alloc_free.get((r, frame_size, pool))
                        frame = (
                            fl.pop()
                            if fl
                            else allocator_allocate(r, frame_size, pool)
                        )
                        if reserving:
                            region = Region(
                                frame_base, frame_size, frame, granule, pool
                            )
                            regions[frame_base] = region
                    else:
                        frame = region.frame
                    paddr = frame.paddr + (page_base - frame_base)
                    vpn = page_base >> shift
                    if vpn in table:
                        raise ValueError(
                            f"page at {page_base:#x} is already mapped"
                        )
                    rec = MappingRecord(
                        page_base,
                        granule,
                        paddr,
                        frame.chiplet,
                        allocation.alloc_id,
                        region,
                    )
                    table[vpn] = rec
                    if region is not None:
                        region.mapped += 1
                    if telem is not None:
                        telem.on_fault(
                            r, v, allocation.alloc_id,
                            (perf_counter() - t0) * 1e6,  # repro-lint: ignore[RPR001]
                        )
                    buf_drain[r]()
                    recs[j] = rec
                    units[j] = unit_tuple(page_base, rec)
                    ok[j] = True
                    unmapped[j] = False
                    delta[j] = paddr - page_base
                    homec[j] = frame.chiplet
                    alloc[j] = allocation.alloc_id
                    done += 1
                page_table.mapped_pages += done
                page_table.generation += done
                last_gen = page_table.generation
                vec_arrays = None
                bulk_faults += done

            # --- window scan over the chunk ---
            # Unresolved positions are computed once; faults only shrink
            # the set (checked lazily via ``ok``), so the list is rebuilt
            # only when an eviction/demotion makes a resolved key stale.
            ok_np = np.array(ok, dtype=bool)
            bad_list = np.flatnonzero(~ok_np[inv]).tolist()
            bp = 0
            rel = 0
            #: Accesses the data pass has served; ``[served, rel)`` are
            #: replayed but not yet served.
            served = 0

            def serve() -> None:
                nonlocal served
                if rel > served:
                    data_pass(
                        ch_chunk[served:rel],
                        pd_buf[served:rel],
                        hm_buf[served:rel],
                    )
                    served = rel

            # A flush from a fault's placement, or an abort, serves the
            # accesses replayed so far (see "One data pass per chunk").
            machine.before_flush = serve
            while rel < m:
                if drain_repairs():
                    ok_np = np.array(ok, dtype=bool)
                    bad_list = (
                        rel + np.flatnonzero(~ok_np[inv[rel:]])
                    ).tolist()
                    bp = 0
                while bp < len(bad_list) and (
                    bad_list[bp] < rel or ok[inv_list[bad_list[bp]]]
                ):
                    bp += 1
                nxt = bad_list[bp] if bp < len(bad_list) else m
                f = nxt - rel
                if f:
                    if f >= MIN_VEC:
                        vec_window(rel, nxt)
                    else:
                        small_window(rel, nxt)
                    fast_accesses += f
                    rel = nxt
                if rel < m:
                    j = inv_list[rel]
                    if bulk_proven and unmapped[j] and not deferred[j]:
                        # ``batch_faults`` resolves this key among the
                        # rest and writes the resolved state directly,
                        # so the next drain_repairs() is a no-op.  One
                        # rebuild from the flags is cheaper than skipping
                        # every newly resolved position one at a time.
                        # A key it defers comes back here and, no longer
                        # passing this test, faults one access at a time.
                        batch_faults(rel)
                        ok_np = np.array(ok, dtype=bool)
                        bad_list = (
                            rel + np.flatnonzero(~ok_np[inv[rel:]])
                        ).tolist()
                        bp = 0
                        continue
                    small_window(rel, rel + 1)
                    rel += 1
            serve()

        # --- chunk loop with kernel/epoch clipping ---
        ks_i = 0
        n_kernels = len(kernel_starts)
        pos = 0
        # The replay allocates heavily but briefly (per-chunk lists,
        # TLB entries, window arrays); cyclic collection mid-run only
        # adds pauses.  Results are unaffected — this is wall time only.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while pos < n:
                if ks_i < n_kernels and kernel_starts[ks_i] == pos:
                    state.kernel_index += 1
                    on_kernel(state.kernel_index)
                    ks_i += 1
                cend = min(pos + CHUNK, n)
                if ks_i < n_kernels:
                    cend = min(cend, kernel_starts[ks_i])
                cend = min(cend, ((pos // epoch_len) + 1) * epoch_len)
                run_chunk(pos, cend)
                pos = cend
                if pos % epoch_len == 0:
                    state.remote_placement = acc_remote_placement
                    state.epoch_remote = acc_epoch_remote
                    state.epoch_accesses = acc_epoch_accesses
                    close_epoch(state, telem)
                    acc_epoch_remote = 0
                    acc_epoch_accesses = 0
        finally:
            if gc_was_enabled:
                gc.enable()
            # Publish even on an abort so error enrichment and
            # post-mortems see true totals (mirrors AccessPipeline.run):
            # the failing chunk's pass serves the accesses before the
            # failing one, as the staged pipeline costs them.
            if machine.before_flush is not None:
                machine.before_flush()
            machine.before_flush = None
            self.fault_stage.finish()
            # Bulk-path faults bypass FaultStage entirely; fold them
            # into the same total its finish() just published.
            state.faults += bulk_faults
            state.translation_cycles = vec_translation
            state.data_cycles, state.remote_on_ring = data.flush_tallies()
            state.remote_placement = acc_remote_placement
            state.epoch_remote = acc_epoch_remote
            state.epoch_accesses = acc_epoch_accesses

        if state.epoch_accesses:
            close_epoch(state, telem)
        if telem is not None:
            # Translation levels are exactly the TLB path counters; a
            # walk costs the L2 TLB probe plus its walk cycles.
            telem.add_translations("L1", 0, sum(p.l1_hits for p in paths))
            telem.add_translations(
                "L2", l2_tlb_latency, sum(p.l2_hits for p in paths)
            )
            for cycles, count in walk_tally.items():
                telem.add_translations("walk", l2_tlb_latency + cycles, count)
            telem.on_run_end(machine)
        self.fast_path_fraction = fast_accesses / n if n else 1.0
        if bulk_proven:
            self.fault_batch_fraction = (
                bulk_faults / state.faults if state.faults else 1.0
            )
        return state


__all__ = ["BatchedPipeline", "CHUNK", "MIN_VEC"]
