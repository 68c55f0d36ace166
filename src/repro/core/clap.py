"""CLAP: the full Chiplet-Locality Aware Page Placement policy (Section 4).

Per data structure, CLAP proceeds through three phases:

1. **PROFILING (PMM, Section 4.2)** — faults are resolved with 64KB
   first-touch mappings, building the sample mapping.  *Opportunistic
   large paging* (OLP) reserves a 2MB frame when a VA block's first page
   arrives and keeps filling it while the same chiplet keeps requesting;
   a foreign-chiplet touch releases the reservation (unused 64KB frames
   return to the free list).  OLP disables itself for the structure once
   releases exceed 5% of its VA blocks.

2. **MMA (Section 4.4)** — once 20% of the structure is mapped, the
   driver drains the Remote Trackers, builds the locality tree over every
   fully mapped 2MB block, and selects the page size.  If no block is
   fully mapped (small structures, tiled scans), the structure falls back
   to OLP permanently (Section 4.5, "Handling Edge Cases").

3. **APPLIED (Section 4.5)** — untouched VA blocks are mapped with the
   selected granularity: a physically contiguous frame of the selected
   size is reserved at the chiplet that first touches the group, 64KB
   pages fill it on demand, 2MB groups promote to native large pages and
   smaller groups rely on the CLAP TLB coalescing (``coalescing=True``).
   Blocks already touched during PMM keep their PMM-era mappings — CLAP
   never migrates (Section 4.7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..sim.results import SelectionInfo
from ..units import (
    BLOCK_SIZE,
    NATIVE_PAGE_SIZES,
    PAGE_2M,
    PAGE_64K,
    align_down,
    pages_in,
)
from ..vm.page_table import Region
from ..vm.va_space import Allocation
from ..policies.base import PlacementPolicy
from .mma import select_page_size


class AllocationPhase(enum.Enum):
    PROFILING = "profiling"
    APPLIED = "applied"
    OLP_FALLBACK = "olp_fallback"


#: Marker for VA blocks whose OLP reservation was released, or that were
#: mapped individually because OLP is disabled.
_RELEASED = "released"
_INDIVIDUAL = "individual"
_BlockState = Union[Region, str]


@dataclass
class _AllocState:
    """CLAP's driver-side bookkeeping for one data structure."""

    allocation: Allocation
    base_page: int = PAGE_64K
    phase: AllocationPhase = AllocationPhase.PROFILING
    selected_size: Optional[int] = None
    olp_enabled: bool = True
    mapped_pages: int = 0
    released_blocks: int = 0
    promoted_blocks: int = 0
    individual_pages: int = 0
    block_state: Dict[int, _BlockState] = field(default_factory=dict)

    @property
    def total_pages(self) -> int:
        return pages_in(self.allocation.size, self.base_page)

    @property
    def olp_release_budget(self) -> int:
        """Releases tolerated before OLP is disabled (5% of VA blocks)."""
        return max(1, int(0.05 * self.allocation.num_blocks))


class ClapPolicy(PlacementPolicy):
    """Chiplet-Locality Aware Page Placement.

    Contract note: ``coalescing`` is declared per *instance* (set in
    ``__init__`` from ``use_coalescing``) — the no-coalescing ablation
    turns the hardware off without a separate class.
    """

    name = "CLAP"
    coalescing = True

    def __init__(
        self,
        pmm_threshold: Optional[float] = None,
        thres: float = 1.0,
        k: float = 1.0,
        ratio_target: float = 0.0,
        use_remote_tracker: bool = True,
        use_coalescing: bool = True,
        base_page_size: int = PAGE_64K,
    ) -> None:
        """CLAP with its Section 4 parameters exposed for ablations.

        ``use_remote_tracker=False`` removes the Eq. 4 relaxation (the
        threshold stays at ``thres``): inherently shared structures then
        get small pages.  ``use_coalescing=False`` removes the TLB
        coalescing hardware: intermediate group sizes lose their reach
        benefit and only true 2MB promotions help translation.
        ``base_page_size`` realises the Section 4.7 scalability claim:
        4KB base pages enable finer selectable sizes (4KB-2MB, a deeper
        MMA tree and a 64KB coalescing window), at the cost of more
        faults and walks during PMM.
        """
        super().__init__()
        if base_page_size not in (4096, PAGE_64K):
            raise ValueError(
                "base_page_size must be 4KB or 64KB (Section 4.7)"
            )
        self.pmm_threshold = pmm_threshold
        self.thres = thres
        self.k = k
        self.ratio_target = ratio_target
        self.use_remote_tracker = use_remote_tracker
        self.coalescing = use_coalescing
        self.base_page_size = base_page_size
        self._state: Dict[int, _AllocState] = {}

    def native_sizes(self):
        """Sizes promotable to real pages: the natives >= the base page.

        With a 4KB base, full 64KB regions promote to native 64KB pages;
        intermediate group sizes always stay as coalescable base pages.
        """
        return {s for s in NATIVE_PAGE_SIZES if s >= self.base_page_size}

    def _setup(self) -> None:
        # A None parameter means each machine's own threshold; it stays
        # None, so one instance can attach to several machines.
        self._pmm_threshold = (
            self.machine.config.pmm_threshold
            if self.pmm_threshold is None
            else self.pmm_threshold
        )
        self._state = {}
        for allocation in self.workload.allocations.values():
            self._state[allocation.alloc_id] = _AllocState(
                allocation, base_page=self.base_page_size
            )
            # Driver sends allocation metadata to the RTs (Section 4.3).
            self.machine.register_allocation(allocation.alloc_id)

    # --- fault handling ---

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        state = self._state[allocation.alloc_id]
        block_base = align_down(vaddr, BLOCK_SIZE)
        if (
            state.phase is AllocationPhase.APPLIED
            and block_base not in state.block_state
        ):
            self._applied_place(vaddr, requester, state)
        else:
            self._pmm_place(vaddr, requester, state, block_base)
        state.mapped_pages += 1
        if (
            state.phase is AllocationPhase.PROFILING
            and state.mapped_pages >= self._pmm_threshold * state.total_pages
        ):
            self._run_mma(state)

    def _pmm_place(
        self, vaddr: int, requester: int, state: _AllocState, block_base: int
    ) -> None:
        """PMM-era mapping: 64KB first touch with OLP (Section 4.2)."""
        pager = self.machine.pager
        allocation = state.allocation
        pool = self.pool_for(allocation)
        block_state = state.block_state.get(block_base)

        if isinstance(block_state, Region):
            region = block_state
            if region.promoted:
                raise RuntimeError(
                    "fault on a fully promoted block cannot happen"
                )
            if requester == region.chiplet:
                record = pager.map_into_region(
                    vaddr, region, allocation.alloc_id
                )
                if record.page_size == PAGE_2M:
                    state.promoted_blocks += 1
                return
            # Foreign touch: release the reservation (Figure 13, step c).
            pager.release_region(region)
            state.block_state[block_base] = _RELEASED
            state.released_blocks += 1
            if state.released_blocks > state.olp_release_budget:
                state.olp_enabled = False
            pager.map_single(
                vaddr, state.base_page, requester, allocation.alloc_id, pool
            )
            state.individual_pages += 1
            return

        if block_state is None and state.olp_enabled:
            # First touch of the block: reserve a full 2MB frame and map
            # the page into its slot (Figure 13, step a).
            block_size = BLOCK_SIZE
            within = allocation.end - block_base
            if within < block_size:
                # Trailing partial block: too small for a 2MB reservation.
                state.block_state[block_base] = _INDIVIDUAL
                pager.map_single(
                    vaddr, state.base_page, requester, allocation.alloc_id,
                    pool,
                )
                state.individual_pages += 1
                return
            region = pager.ensure_region(
                block_base, block_size, state.base_page, requester, pool
            )
            state.block_state[block_base] = region
            record = pager.map_into_region(vaddr, region, allocation.alloc_id)
            if record.page_size == PAGE_2M:
                state.promoted_blocks += 1
            return

        # OLP disabled, or the block was released: individual 64KB pages.
        if block_state is None:
            state.block_state[block_base] = _INDIVIDUAL
        pager.map_single(
            vaddr, state.base_page, requester, allocation.alloc_id, pool
        )
        state.individual_pages += 1

    def _applied_place(
        self, vaddr: int, requester: int, state: _AllocState
    ) -> None:
        """Post-MMA mapping at the selected granularity (Section 4.5)."""
        pager = self.machine.pager
        allocation = state.allocation
        pool = self.pool_for(allocation)
        size = state.selected_size
        assert size is not None
        if size <= state.base_page:
            pager.map_single(
                vaddr, state.base_page, requester, allocation.alloc_id, pool
            )
            return
        region_base = align_down(vaddr, size)
        region = pager.region_at(region_base)
        if region is None:
            region = pager.ensure_region(
                region_base, size, state.base_page, requester, pool
            )
        pager.map_into_region(vaddr, region, allocation.alloc_id)

    # --- analysis ---

    def _run_mma(self, state: _AllocState) -> None:
        """Drain RTs, build locality trees, pick the size (Section 4.4)."""
        allocation = state.allocation
        page_table = self.machine.page_table
        ratio_rt = self.machine.rt_ratio(allocation.alloc_id)
        if not self.use_remote_tracker:
            ratio_rt = 0.0
        blocks = []
        slots = BLOCK_SIZE // state.base_page
        for index in range(allocation.num_blocks):
            base = allocation.block_base(index)
            if allocation.block_size(index) < BLOCK_SIZE:
                continue
            owners = []
            for slot in range(slots):
                record = page_table.lookup(base + slot * state.base_page)
                if record is None:
                    owners = None
                    break
                owners.append(record.chiplet)
            if owners is not None:
                blocks.append(owners)
        if not blocks:
            state.phase = AllocationPhase.OLP_FALLBACK
            return
        state.selected_size = select_page_size(
            blocks,
            ratio_rt,
            thres=self.thres,
            k=self.k,
            ratio_target=self.ratio_target,
            base_page=state.base_page,
            num_chiplets=self.machine.num_chiplets,
        )
        state.phase = AllocationPhase.APPLIED

    # --- reporting ---

    def selection_report(self) -> Dict[str, SelectionInfo]:
        report: Dict[str, SelectionInfo] = {}
        for name, allocation in self.workload.allocations.items():
            state = self._state.get(allocation.alloc_id)
            if state is None:
                continue
            if (
                state.phase is AllocationPhase.APPLIED
                and state.selected_size is not None
            ):
                report[name] = SelectionInfo(state.selected_size, via_olp=False)
                continue
            # PROFILING / OLP fallback: report what OLP actually built.
            large = state.promoted_blocks
            small = state.released_blocks + (1 if state.individual_pages else 0)
            size = PAGE_2M if large > small else state.base_page
            report[name] = SelectionInfo(size, via_olp=True)
        return report

    def allocation_phase(self, alloc_id: int) -> AllocationPhase:
        return self._state[alloc_id].phase
