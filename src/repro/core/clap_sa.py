"""CLAP-SA and CLAP-SA++: CLAP over static-analysis profiling (Section 5.2).

**CLAP-SA** replaces the runtime PMM phase with the SA policy's predicted
placement: the locality tree is computed over the *predicted* owner map
before launch, so the page size is known from the first fault and pages
are placed at their predicted owners.  Shared structures are statically
known to be shared and get 2MB outright.  The limitation: structures with
irregular access patterns cannot be predicted — static analysis falls
back to a neutral block-round-robin placement whose tree *looks* perfectly
local at 2MB, so CLAP-SA picks large pages at the wrong owners.

**CLAP-SA++** patches exactly that: structures flagged unpredictable are
handed to runtime CLAP profiling (PMM + RT + MMA), while predictable and
shared structures keep the zero-overhead static path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Dict, Optional

from ..sched.static_analysis import StaticPlacementOracle
from ..sim.results import SelectionInfo
from ..trace.workload import Workload
from ..units import BLOCK_SIZE, PAGE_2M, PAGE_64K, align_down
from ..vm.va_space import Allocation
from ..policies.base import PlacementPolicy
from .clap import ClapPolicy
from .mma import select_page_size

if TYPE_CHECKING:
    import numpy as np

    from ..sim.machine import Machine


class ClapSaPolicy(PlacementPolicy):
    """Static-analysis profiling + tree-based size selection."""

    name = "CLAP-SA"
    #: contract override: CLAP's coalescing hardware is assumed present
    coalescing: ClassVar[bool] = True

    def __init__(self) -> None:
        super().__init__()
        self._oracle: Optional[StaticPlacementOracle] = None
        self._owner_maps: Dict[int, np.ndarray] = {}
        self._sizes: Dict[int, int] = {}

    def _setup(self) -> None:
        self._oracle = StaticPlacementOracle(self.workload)
        slots = BLOCK_SIZE // PAGE_64K
        for name, allocation in self.workload.allocations.items():
            structure = self.workload.spec.structure(name)
            owners = self._oracle.predicted_owner_map(structure)
            self._owner_maps[allocation.alloc_id] = owners
            if self._oracle.is_shared(structure):
                # Statically proven global sharing: large pages win
                # regardless of placement (Section 4.4 "With RT").
                self._sizes[allocation.alloc_id] = PAGE_2M
                continue
            blocks = [
                list(owners[start:start + slots])
                for start in range(0, len(owners) - slots + 1, slots)
            ]
            if not blocks:
                self._sizes[allocation.alloc_id] = PAGE_64K
                continue
            self._sizes[allocation.alloc_id] = select_page_size(
                blocks, ratio_rt=0.0, num_chiplets=self.machine.num_chiplets
            )

    def selected_size(self, allocation: Allocation) -> int:
        return self._sizes[allocation.alloc_id]

    def _predicted_owner(self, vaddr: int, allocation: Allocation) -> int:
        owners = self._owner_maps[allocation.alloc_id]
        page = (vaddr - allocation.base) // PAGE_64K
        return int(owners[min(page, len(owners) - 1)])

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        pager = self.machine.pager
        pool = self.pool_for(allocation)
        size = self._sizes[allocation.alloc_id]
        if size <= PAGE_64K:
            pager.map_single(
                vaddr,
                PAGE_64K,
                self._predicted_owner(vaddr, allocation),
                allocation.alloc_id,
                pool,
            )
            return
        region_base = align_down(vaddr, size)
        region = pager.region_at(region_base)
        if region is None:
            chiplet = self._predicted_owner(
                max(region_base, allocation.base), allocation
            )
            region = pager.ensure_region(
                region_base, size, PAGE_64K, chiplet, pool
            )
        pager.map_into_region(vaddr, region, allocation.alloc_id)

    def selection_report(self) -> Dict[str, SelectionInfo]:
        return {
            name: SelectionInfo(self._sizes[a.alloc_id], via_olp=False)
            for name, a in self.workload.allocations.items()
        }


class ClapSaPlusPolicy(ClapSaPolicy):
    """CLAP-SA with runtime profiling for unpredictable structures."""

    name = "CLAP-SA++"

    def __init__(self) -> None:
        super().__init__()
        self._runtime = ClapPolicy()
        self._runtime_ids: set = set()

    def attach(self, machine: Machine, workload: Workload) -> None:
        super().attach(machine, workload)
        self._runtime.attach(machine, workload)
        self._runtime_ids = {
            allocation.alloc_id
            for name, allocation in workload.allocations.items()
            if not self._oracle.is_predictable(workload.spec.structure(name))
            and not self._oracle.is_shared(workload.spec.structure(name))
        }

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        if allocation.alloc_id in self._runtime_ids:
            self._runtime.place(vaddr, requester, allocation)
        else:
            super().place(vaddr, requester, allocation)

    def selection_report(self) -> Dict[str, SelectionInfo]:
        report = super().selection_report()
        runtime_report = self._runtime.selection_report()
        for name, allocation in self.workload.allocations.items():
            if allocation.alloc_id in self._runtime_ids and name in runtime_report:
                report[name] = runtime_report[name]
        return report
