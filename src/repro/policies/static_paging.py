"""Static paging with first-touch placement (S-4KB / S-64KB / S-2MB).

The baseline memory-mapping scheme of Section 3.1: every data structure
is mapped with one fixed page size; the page (or the whole reserved large
frame) is placed on the chiplet whose thread first touches it.  Page
sizes above 64KB use reservation-based demand paging (Figure 5): a frame
of the full page size is reserved on first touch, 64KB sub-pages populate
it on demand, and the region is promoted to a native large page when
full.

This class also implements the *hypothetical* native intermediate sizes
of the Figure 6 sweep (128KB–1MB): the system is assumed to have a
dedicated TLB for the size (Section 3.3), so full regions promote to a
native page of that size.
"""

from __future__ import annotations

from typing import Set

from ..units import PAGE_2M, PAGE_4K, PAGE_64K, align_down, is_pow2, size_label
from ..vm.va_space import Allocation
from .base import PlacementPolicy


class StaticPaging(PlacementPolicy):
    """Fixed page size, first-touch chiplet.

    Contract note: ``name`` is derived per instance (``S-64KB`` …); all
    capability flags keep the :class:`PlacementPolicy` defaults — static
    paging assumes no coalescing hardware and distributed PTEs.
    """

    def __init__(self, page_size: int) -> None:
        super().__init__()
        if not is_pow2(page_size):
            raise ValueError("page_size must be a power of two")
        if not PAGE_4K <= page_size <= PAGE_2M:
            raise ValueError(
                f"page_size must be within [4KB, 2MB], got "
                f"{size_label(page_size)}"
            )
        self.page_size = page_size
        self.name: str = f"S-{size_label(page_size)}"
        #: demand-paging granularity: 64KB sub-pages for large sizes,
        #: the page itself for 4KB/64KB (Figure 5).
        self.base_size = min(page_size, PAGE_64K)

    def native_sizes(self) -> Set[int]:
        return {self.base_size, self.page_size}

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        pager = self.machine.pager
        pool = self.pool_for(allocation)
        if self.page_size <= PAGE_64K:
            pager.map_single(
                vaddr, self.page_size, requester, allocation.alloc_id, pool
            )
            return
        region_base = align_down(vaddr, self.page_size)
        region = pager.region_at(region_base)
        if region is None:
            region = pager.ensure_region(
                region_base, self.page_size, self.base_size, requester, pool
            )
        pager.map_into_region(vaddr, region, allocation.alloc_id)
