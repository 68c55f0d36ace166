"""The staged access pipeline: the decomposed simulation core.

``run_simulation`` used to be one ~210-line loop interleaving four
concerns; they now live in four explicit stages sharing a
:class:`SimState` context, mirroring the hardware path of Figure 3:

* :class:`FaultStage` — page-table lookup, GMMU fault buffering, policy
  placement (with error enrichment) and host-eviction refaults;
* :class:`TranslationStage` — translation-unit selection, the requester
  chiplet's TLB path, page walks and Remote Tracker updates;
* :class:`DataStage` — L1 → remote cache → ring → home L2 → DRAM, paying
  ring latency and recording ring occupancy for remote traffic;
* :class:`AccountingStage` — per-structure counters, per-page access
  statistics, epoch boundaries (including the closing partial epoch) and
  the per-epoch policy callbacks.

:class:`AccessPipeline` wires the stages and replays the trace;
``run_simulation`` (:mod:`repro.sim.engine`) is the thin driver that
builds the state, runs the pipeline and folds a
:class:`~repro.sim.results.SimResult`.

**SimState ownership**: the state owns every cross-stage accumulator
(cycle totals, fault counts, epoch bookkeeping, per-structure tallies).
Stages own nothing durable — each binds its hot references at
construction, accumulates privately during the replay, and publishes
into the shared state in :meth:`finish`, so the fold at the end reads
one object.  Stage processing order within an access is fault →
translation → data → accounting; the stages touch disjoint machine
state, which keeps the decomposition bit-identical to the monolithic
loop it replaced.

**Hot-path compilation**: a stage's ``process`` is built in its
constructor as a closure over local bindings of everything it touches
(cache lists, latencies, capability flags, its own counters).  Closure
variables cost a fast ``LOAD_DEREF`` instead of two attribute lookups
per touch, which keeps the staged pipeline within a few percent of the
fused loop it replaced — the difference between an observable
architecture and a 15% regression on every sweep.  Counters accumulated
in closure cells are published to the :class:`SimState` by ``finish()``.

Telemetry (:mod:`repro.sim.telemetry`) hooks into every stage; when no
instrumentation is attached each closure holds ``telem = None`` and the
hot path pays a single ``is not None`` test per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from ..arch.address import InterleavePolicy
from ..policies.contract import PolicyCapabilities, validate_policy
from ..tlb.units import unit_for, valid_mask_for
from ..trace.workload import Trace, Workload
from ..units import PAGE_64K
from .errors import MemoryExhaustedError, PolicyMappingError
from .machine import Machine
from .telemetry import Instrumentation
from .timing import CycleCounters


@dataclass
class SimState:
    """Everything one simulated run accumulates, shared across stages."""

    machine: Machine
    workload: Workload
    policy: object
    capabilities: PolicyCapabilities
    trace: Trace
    interleave: InterleavePolicy

    #: alloc_id -> Allocation, for fault-time policy placement
    allocations: Dict[int, object] = field(default_factory=dict)
    #: alloc_id -> [accesses, remote_accesses]
    per_structure: Dict[int, List[int]] = field(default_factory=dict)
    #: 64KB-page base -> per-chiplet access counts (epoch-scoped; only
    #: maintained when the policy wants page stats)
    page_stats: Dict[int, List[int]] = field(default_factory=dict)

    translation_cycles: int = 0
    data_cycles: int = 0
    #: accesses whose home chiplet differs from the requester
    remote_placement: int = 0
    #: remote accesses that actually crossed the ring (missed all caches)
    remote_on_ring: int = 0
    faults: int = 0

    epoch_len: int = 1
    epoch_index: int = 0
    epoch_remote: int = 0
    epoch_accesses: int = 0
    kernel_index: int = -1

    @classmethod
    def create(
        cls,
        machine: Machine,
        workload: Workload,
        policy: object,
        capabilities: PolicyCapabilities,
        trace: Trace,
        interleave: InterleavePolicy,
    ) -> "SimState":
        n = len(trace)
        return cls(
            machine=machine,
            workload=workload,
            policy=policy,
            capabilities=capabilities,
            trace=trace,
            interleave=interleave,
            allocations={
                a.alloc_id: a for a in workload.allocations.values()
            },
            per_structure={
                a.alloc_id: [0, 0] for a in workload.allocations.values()
            },
            epoch_len=max(1, n // max(capabilities.num_epochs, 1)),
        )

    def fold_counters(self) -> CycleCounters:
        """Raw latency totals in the shape the timing model consumes."""
        counters = CycleCounters(
            n_warp_instructions=self.trace.n_warp_instructions
        )
        counters.n_accesses = len(self.trace)
        counters.translation_cycles = self.translation_cycles
        counters.data_cycles = self.data_cycles
        counters.remote_accesses = self.remote_on_ring
        counters.migration_cycles = (
            self.machine.pager.migration.total_cycles()
        )
        eviction = self.machine.pager.eviction
        if eviction is not None:
            counters.host_fault_cycles = eviction.stats.host_fault_cycles()
        return counters


def close_epoch(state: SimState, telem: Optional[Instrumentation]) -> None:
    """Close the current epoch: fire ``policy.on_epoch`` and reset.

    Single source of the epoch semantics, shared by the staged
    :class:`AccountingStage` and the batched replay engine
    (:mod:`repro.sim.batch`): the remote ratio the policy sees, the
    epoch-index advance, and the page-stats reset must be identical in
    both engines for results to stay bit-identical.  The caller must
    have synced ``state.epoch_remote`` / ``state.epoch_accesses`` first.

    ``on_epoch`` runs inside the machine's flush batch: every migration
    it makes drops its data-cache lines when the callback returns, one
    pass per cache, which is exact because no data cache is read or
    filled inside the callback.
    """
    ratio = (
        state.epoch_remote / state.epoch_accesses
        if state.epoch_accesses
        else 0.0
    )
    with state.machine.flush_batch():
        state.policy.on_epoch(state.epoch_index, state.page_stats, ratio)
    if telem is not None:
        telem.on_epoch(state.epoch_index, ratio, state.per_structure)
    state.epoch_index += 1
    state.epoch_remote = 0
    state.epoch_accesses = 0
    if state.capabilities.wants_page_stats:
        state.page_stats = {}


class FaultStage:
    """Resolve page faults: fault buffer, policy placement, eviction.

    ``process(i, requester, vaddr) -> MappingRecord`` returns the live
    mapping for the access, faulting it in through the policy first when
    unmapped.
    """

    def __init__(
        self, state: SimState, telem: Optional[Instrumentation]
    ) -> None:
        self.state = state
        machine = state.machine
        lookup = machine.page_table.lookup
        fault_buffers = machine.fault_buffers
        eviction = machine.pager.eviction
        place = state.policy.place
        allocations = state.allocations
        alloc_ids = state.trace.alloc_ids
        n = len(state.trace)
        policy_name = state.capabilities.name
        workload_abbr = state.workload.spec.abbr
        faults = 0

        def process(i: int, requester: int, vaddr: int):
            nonlocal faults
            record = lookup(vaddr)
            if record is not None:
                return record
            allocation = allocations[int(alloc_ids[i])]
            fault_buffers[requester].log(vaddr, requester)
            # Wall time feeds only the telemetry snapshot (stripped
            # before cache writes), never a result counter.
            start = perf_counter() if telem is not None else 0.0  # repro-lint: ignore[RPR001]
            try:
                place(vaddr, requester, allocation)
            except MemoryExhaustedError as exc:
                # Enrich the allocator's error with the trace position so
                # a failed sweep cell is post-mortem debuggable alone.
                exc.context.update(
                    workload=workload_abbr,
                    policy=policy_name,
                    access_index=i,
                    n_accesses=n,
                    vaddr=hex(vaddr),
                    requester=requester,
                    page_faults_so_far=faults,
                    host_eviction=eviction is not None,
                )
                raise
            fault_buffers[requester].drain()
            record = lookup(vaddr)
            if record is None:
                raise PolicyMappingError(
                    f"policy {policy_name!r} failed to map {vaddr:#x}",
                    context={
                        "workload": workload_abbr,
                        "policy": policy_name,
                        "access_index": i,
                        "vaddr": hex(vaddr),
                        "requester": requester,
                    },
                )
            faults += 1
            if eviction is not None:
                eviction.consume_host_refault(vaddr, record.page_size)
            if telem is not None:
                telem.on_fault(
                    requester,
                    vaddr,
                    allocation.alloc_id,
                    (perf_counter() - start) * 1e6,  # repro-lint: ignore[RPR001]
                )
            return record

        def finish() -> None:
            state.faults = faults

        self.process = process
        self.finish = finish


class TranslationStage:
    """Translate: unit selection, TLB path, page walker, Remote Tracker."""

    def __init__(
        self, state: SimState, telem: Optional[Instrumentation]
    ) -> None:
        self.state = state
        machine = state.machine
        caps = state.capabilities
        paths = machine.paths
        walkers = machine.walkers
        page_table = machine.page_table
        coalescing = caps.coalescing
        pattern = caps.pattern_coalescing
        ideal = caps.ideal_translation
        translation_cycles = 0

        def process(requester: int, vaddr: int, record) -> None:
            nonlocal translation_cycles
            unit = unit_for(
                vaddr,
                record,
                coalescing=coalescing,
                pattern_coalescing=pattern,
                ideal=ideal,
            )
            walker = walkers[requester]
            result = paths[requester].access(
                unit,
                walk=lambda: walker.walk(
                    vaddr, record.alloc_id, record.chiplet
                ),
                valid_mask=lambda: valid_mask_for(unit, record, page_table),
            )
            translation_cycles += result.latency
            if telem is not None:
                telem.on_translation(requester, result.level, result.latency)

        def finish() -> None:
            state.translation_cycles = translation_cycles

        self.process = process
        self.finish = finish


class DataStage:
    """Fetch the data: L1 → remote cache → ring → home L2 → DRAM.

    ``process(requester, vaddr, record) -> bool`` serves one access and
    returns whether its home chiplet is remote to the requester.
    """

    def __init__(
        self, state: SimState, telem: Optional[Instrumentation]
    ) -> None:
        self.state = state
        machine = state.machine
        config = machine.config
        l1_caches = machine.l1_caches
        l2_caches = machine.l2_caches
        remote_caches = machine.remote_caches
        ring = machine.ring
        layout = machine.layout
        dram = machine.dram
        l1_latency = config.l1_latency
        l2_latency = config.l2_latency
        naive = state.interleave is InterleavePolicy.NAIVE
        data_cycles = 0
        remote_on_ring = 0

        def process(requester: int, vaddr: int, record) -> bool:
            nonlocal data_cycles, remote_on_ring
            paddr = record.paddr + (vaddr - record.va_base)
            if naive:
                # Monolithic-style 256B interleaving: the chiplet serving
                # a line follows the fine interleave bits, not the frame —
                # placement intent is physically unenforceable (§2.6).
                home = layout.chiplet_of_paddr(paddr)
            else:
                home = record.chiplet
            remote = home != requester

            if l1_caches[requester].access(paddr):
                data_cycles += l1_latency
                if telem is not None:
                    telem.on_data(requester, home, "l1", l1_latency)
                return remote
            if remote and remote_caches is not None:
                if remote_caches[requester].access(paddr):
                    data_cycles += l2_latency
                    if telem is not None:
                        telem.on_data(
                            requester, home, "remote_cache", l2_latency
                        )
                    return remote
            cost = 0
            if remote:
                cost += 2 * ring.latency(requester, home)
                ring.record_transfer(home, requester, 160)
                remote_on_ring += 1
            if l2_caches[home].access(paddr):
                cost += l2_latency
                served = "home_l2"
            else:
                channel = layout.channel_of_paddr(paddr)
                cost += l2_latency + dram.access(channel, paddr)
                served = "dram"
            data_cycles += cost
            if telem is not None:
                telem.on_data(requester, home, served, cost)
            return remote

        def finish() -> None:
            state.data_cycles = data_cycles
            state.remote_on_ring = remote_on_ring

        self.process = process
        self.finish = finish


class AccountingStage:
    """Epoch bookkeeping, per-structure and per-page statistics.

    Owns the epoch clock: fires ``policy.on_epoch`` at every boundary
    and — via :meth:`flush` — once more for a partial tail epoch, so
    epoch-driven policies see their end-of-trace statistics.
    """

    def __init__(
        self, state: SimState, telem: Optional[Instrumentation]
    ) -> None:
        self.state = state
        self._telem = telem
        caps = state.capabilities
        per_structure = state.per_structure
        wants_stats = caps.wants_page_stats
        num_chiplets = state.machine.config.num_chiplets
        epoch_len = state.epoch_len
        close_epoch = self._close_epoch
        remote_placement = 0
        epoch_remote = 0
        epoch_accesses = 0

        def process(i: int, requester: int, vaddr: int, record,
                    remote: bool) -> None:
            nonlocal remote_placement, epoch_remote, epoch_accesses
            stats = per_structure[record.alloc_id]
            stats[0] += 1
            if remote:
                remote_placement += 1
                stats[1] += 1
                epoch_remote += 1
            epoch_accesses += 1

            if wants_stats:
                page_base = vaddr & ~(PAGE_64K - 1)
                counts = state.page_stats.get(page_base)
                if counts is None:
                    counts = [0] * num_chiplets
                    state.page_stats[page_base] = counts
                counts[requester] += 1

            if (i + 1) % epoch_len == 0:
                publish()
                close_epoch()
                epoch_remote = 0
                epoch_accesses = 0

        def publish() -> None:
            state.remote_placement = remote_placement
            state.epoch_remote = epoch_remote
            state.epoch_accesses = epoch_accesses

        self.process = process
        self.publish = publish

    def _close_epoch(self) -> None:
        close_epoch(self.state, self._telem)

    def finish(self) -> None:
        """Publish counters and flush the final partial epoch.

        When the trace length is not a multiple of the epoch length, the
        tail accesses never crossed an epoch boundary; without this
        closing ``on_epoch`` an epoch-driven policy (C-NUMA, GRIT) is
        starved of its end-of-trace statistics.
        """
        self.publish()
        if self.state.epoch_accesses:
            self._close_epoch()


class AccessPipeline:
    """The staged simulation core: replays a trace through the stages."""

    def __init__(
        self,
        state: SimState,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        telem = (
            instrumentation
            if instrumentation is not None and instrumentation.enabled
            else None
        )
        self.state = state
        self.telemetry = telem
        self.fault_stage = FaultStage(state, telem)
        self.translation_stage = TranslationStage(state, telem)
        self.data_stage = DataStage(state, telem)
        self.accounting_stage = AccountingStage(state, telem)

    def run(self) -> SimState:
        """Replay the whole trace through the stages; returns the state."""
        state = self.state
        trace = state.trace
        chiplets = trace.chiplets
        vaddrs = trace.vaddrs
        n = len(trace)
        kernel_starts = set(trace.kernel_starts)
        on_kernel = state.policy.on_kernel
        fault = self.fault_stage.process
        translate = self.translation_stage.process
        data = self.data_stage.process
        account = self.accounting_stage.process

        try:
            for i in range(n):
                if i in kernel_starts:
                    state.kernel_index += 1
                    on_kernel(state.kernel_index)
                requester = int(chiplets[i])
                vaddr = int(vaddrs[i])
                record = fault(i, requester, vaddr)
                translate(requester, vaddr, record)
                remote = data(requester, vaddr, record)
                account(i, requester, vaddr, record, remote)
        finally:
            # Publish stage-local accumulators even on an abort, so
            # error enrichment and post-mortems see the true totals.
            self.fault_stage.finish()
            self.translation_stage.finish()
            self.data_stage.finish()
        self.accounting_stage.finish()
        if self.telemetry is not None:
            self.telemetry.on_run_end(state.machine)
        return state


__all__ = [
    "AccessPipeline",
    "AccountingStage",
    "DataStage",
    "FaultStage",
    "SimState",
    "TranslationStage",
    "close_epoch",
    "validate_policy",
]
