"""GRIT (Wang et al., HPCA'24) adapted from multi-GPU to MCM GPUs.

GRIT records fine-grained page access history and migrates pages toward
the device that dominates their accesses.  Following the paper's
evaluation setup (Section 5): page duplication is dropped (a unified MCM
page table forbids mapping one VA twice) and migration is idealised to
zero latency.  The page size stays fixed at 64KB, so GRIT achieves high
data locality but none of the large-page translation benefits — the
reason its Figure 18 bars track S-64KB.

Model: 64KB first-touch placement; each epoch, pages whose access history
shows a clear dominant chiplet different from their current home migrate
there free of charge.
"""

from __future__ import annotations

from typing import ClassVar, Dict, List

from ..units import PAGE_64K
from ..vm.va_space import Allocation
from .base import PlacementPolicy

#: Minimum per-epoch accesses before a page's history is trusted.
_MIN_ACCESSES = 2
#: Required dominance (share of accesses from one chiplet) to migrate.
_DOMINANCE = 0.6


class GritPolicy(PlacementPolicy):
    """Fixed 64KB pages with history-guided zero-cost migration."""

    name = "GRIT"
    #: contract override: per-page history drives epoch migrations
    wants_page_stats: ClassVar[bool] = True

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        self.machine.pager.map_single(
            vaddr,
            PAGE_64K,
            requester,
            allocation.alloc_id,
            self.pool_for(allocation),
        )

    def on_epoch(
        self,
        epoch: int,
        page_stats: Dict[int, List[int]],
        epoch_remote_ratio: float,
    ) -> None:
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
            if record is None or record.page_size != PAGE_64K:
                continue
            if record.chiplet == dominant:
                continue
            allocation = va_space.find(page_base)
            if allocation is None:
                continue
            self.migrate(
                page_base,
                dominant,
                self.pool_for(allocation),
                free_of_cost=True,
            )
