"""Ideal C-NUMA: reactive global page-size adaptation (Sections 3.5, 5).

C-NUMA (Carrefour/Dashti et al. + Gaud et al.) constructs and splits
large pages at runtime via page migration.  Following the paper's
evaluation, migrations are *free* (zero latency, "Ideal_C-NUMA"), which
isolates the algorithmic limitations the paper identifies:

1. one **global** page size for the whole application — no per-structure
   adaptation;
2. page-size support limited to {64KB, 2MB} (the ``intermediate=True``
   variant, "Ideal_C-NUMA+inter", steps through the intermediate
   power-of-two sizes instead of jumping);
3. **reactive** operation: it observes remote traffic per epoch and only
   then reorganises, so early mappings at the wrong granularity cost real
   remote accesses before the split/migrations repair them — and each
   convergence step takes another epoch.

Model: faults map at the current global size (first touch; VA blocks pin
the size they were first mapped with).  Each epoch, if the remote ratio
is high the global size shrinks and the already-mapped pages with a clear
foreign dominant accessor are split out of their large pages and migrated
to it; if the remote ratio is very low the size grows back.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List, Set

from ..units import PAGE_2M, PAGE_64K, align_down
from ..vm.va_space import Allocation
from .base import PlacementPolicy

#: Epoch remote ratio above which the global size shrinks.
_HIGH_REMOTE = 0.15
#: Epoch remote ratio below which the global size may grow.
_LOW_REMOTE = 0.02
#: Dominance required to migrate a page (as in GRIT's history check).
_DOMINANCE = 0.6
_MIN_ACCESSES = 2

_INTERMEDIATE_LADDER = (
    PAGE_64K,
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
    PAGE_2M,
)


class CNumaPolicy(PlacementPolicy):
    """Reactive global page sizing with free migrations."""

    #: contract override: epoch page stats feed the split/migrate pass
    wants_page_stats: ClassVar[bool] = True

    def __init__(self, intermediate: bool = False) -> None:
        super().__init__()
        self.intermediate = intermediate
        self.name = "Ideal_C-NUMA+inter" if intermediate else "Ideal_C-NUMA"
        self._setup()

    def _setup(self) -> None:
        """Start a run: every attach resets the adaptation state, whose
        start values the cell fingerprint holds."""
        self.current_size = PAGE_2M
        self._block_size: Dict[int, int] = {}
        self.size_changes = 0
        self._calm_epochs = 0

    def native_sizes(self) -> Set[int]:
        if self.intermediate:
            return set(_INTERMEDIATE_LADDER)
        return {PAGE_64K, PAGE_2M}

    # --- placement ---

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        pager = self.machine.pager
        pool = self.pool_for(allocation)
        block = align_down(vaddr, PAGE_2M)
        size = self._block_size.setdefault(block, self.current_size)
        if size <= PAGE_64K:
            pager.map_single(
                vaddr, PAGE_64K, requester, allocation.alloc_id, pool
            )
            return
        region_base = align_down(vaddr, size)
        region = pager.region_at(region_base)
        if region is None:
            region = pager.ensure_region(
                region_base, size, PAGE_64K, requester, pool
            )
        pager.map_into_region(vaddr, region, allocation.alloc_id)

    # --- reactive adaptation ---

    def _shrink(self) -> None:
        if self.current_size <= PAGE_64K:
            return
        if self.intermediate:
            ladder = _INTERMEDIATE_LADDER
            index = ladder.index(self.current_size)
            self.current_size = ladder[index - 1]
        else:
            self.current_size = PAGE_64K
        self.size_changes += 1

    def _grow(self) -> None:
        if self.current_size >= PAGE_2M:
            return
        if self.intermediate:
            ladder = _INTERMEDIATE_LADDER
            index = ladder.index(self.current_size)
            self.current_size = ladder[index + 1]
        else:
            self.current_size = PAGE_2M
        self.size_changes += 1

    def on_epoch(
        self,
        epoch: int,
        page_stats: Dict[int, List[int]],
        epoch_remote_ratio: float,
    ) -> None:
        if epoch_remote_ratio > _HIGH_REMOTE:
            self._calm_epochs = 0
            self._shrink()
            self._split_and_migrate(page_stats)
        elif epoch_remote_ratio < _LOW_REMOTE:
            # Hysteresis: grow only after two consecutive calm epochs,
            # otherwise the split->repair->grow loop oscillates.
            self._calm_epochs += 1
            if self._calm_epochs >= 2:
                self._grow()
        else:
            self._calm_epochs = 0

    def _split_and_migrate(self, page_stats: Dict[int, List[int]]) -> None:
        """Split promoted pages with foreign-dominated sub-pages; migrate."""
        page_table = self.machine.page_table
        va_space = self.machine.va_space
        for page_base, counts in page_stats.items():
            total = sum(counts)
            if total < _MIN_ACCESSES:
                continue
            dominant = max(range(len(counts)), key=counts.__getitem__)
            if counts[dominant] < _DOMINANCE * total:
                continue
            record = page_table.lookup(page_base)
            if record is None or record.chiplet == dominant:
                continue
            if record.page_size > PAGE_64K:
                # A promoted native page: split it first (free, but the
                # TLB entry for the large page dies).
                region = record.region
                if region is None:
                    continue
                self.machine.shootdown(record.va_base, record.page_size)
                page_table.demote_region(region)
                region.released = True
                record = page_table.lookup(page_base)
                if record is None or record.chiplet == dominant:
                    continue
            allocation = va_space.find(page_base)
            if allocation is None:
                continue
            if record.region is not None:
                record.region.released = True
            self.migrate(
                page_base,
                dominant,
                self.pool_for(allocation),
                free_of_cost=True,
            )
