"""Static-analysis placement with a fixed page size (SA-64KB / SA-2MB).

The SA policy of Section 5.2: LASP+SUV-style static analysis predicts
which chiplet will access each data page, and the driver places pages at
their predicted owners instead of waiting for first touch.  The page size
is fixed; as the paper shows, a statically perfect placement *range* can
still be ruined by a page granularity that spans multiple predicted
owners — the motivation for CLAP-SA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set

from ..sched.static_analysis import StaticPlacementOracle
from ..units import PAGE_2M, PAGE_64K, align_down, is_pow2, size_label
from ..vm.va_space import Allocation
from .base import PlacementPolicy

if TYPE_CHECKING:
    import numpy as np


class SaStaticPolicy(PlacementPolicy):
    """Predicted-owner placement with a fixed page size.

    Contract note: ``name`` is derived per instance (``SA-64KB`` /
    ``SA-2MB``); capability flags keep the contract defaults.
    """

    def __init__(self, page_size: int) -> None:
        super().__init__()
        if not is_pow2(page_size) or not PAGE_64K <= page_size <= PAGE_2M:
            raise ValueError(
                f"page_size must be a power of two in [64KB, 2MB], got "
                f"{size_label(page_size)}"
            )
        self.page_size = page_size
        self.name: str = f"SA-{size_label(page_size)}"
        self._oracle: StaticPlacementOracle = None  # set at attach
        self._owner_maps: Dict[int, np.ndarray] = {}

    def native_sizes(self) -> Set[int]:
        return {PAGE_64K, self.page_size}

    def _setup(self) -> None:
        self._oracle = StaticPlacementOracle(self.workload)
        for name, allocation in self.workload.allocations.items():
            structure = self.workload.spec.structure(name)
            self._owner_maps[allocation.alloc_id] = (
                self._oracle.predicted_owner_map(structure)
            )

    def predicted_owner(self, vaddr: int, allocation: Allocation) -> int:
        owners = self._owner_maps[allocation.alloc_id]
        page = (vaddr - allocation.base) // PAGE_64K
        return int(owners[min(page, len(owners) - 1)])

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        pager = self.machine.pager
        pool = self.pool_for(allocation)
        if self.page_size <= PAGE_64K:
            pager.map_single(
                vaddr,
                PAGE_64K,
                self.predicted_owner(vaddr, allocation),
                allocation.alloc_id,
                pool,
            )
            return
        region_base = align_down(vaddr, self.page_size)
        region = pager.region_at(region_base)
        if region is None:
            # The whole large page goes to the predicted owner of its
            # first page — the granularity-misalignment the paper studies.
            chiplet = self.predicted_owner(
                max(region_base, allocation.base), allocation
            )
            region = pager.ensure_region(
                region_base, self.page_size, PAGE_64K, chiplet, pool
            )
        pager.map_into_region(vaddr, region, allocation.alloc_id)
