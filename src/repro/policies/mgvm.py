"""MGvm (Pratheek et al., MICRO'22) adapted to the evaluation frame.

MGvm redesigns the MCM GPU virtual-memory system: it optimises the
placement of PTE pages and TLB entries so that the *address-translation
path* stays chiplet-local.  Data placement itself is the standard 64KB
first-touch mapping, so MGvm's gains come entirely from cheaper page
walks — which is why the paper finds CLAP's larger effective pages beat
it (Section 5.1): fewer walks beat cheaper walks.

Model: 64KB first-touch placement with ``PtePlacement.LOCAL`` — every
page-walk step is served from the walking chiplet.
"""

from __future__ import annotations

from typing import ClassVar

from ..gmmu.walker import PtePlacement
from ..units import PAGE_64K
from ..vm.va_space import Allocation
from .base import PlacementPolicy


class MgvmPolicy(PlacementPolicy):
    """64KB first-touch with a fully local translation path."""

    name = "MGvm"
    #: contract override: every page-walk step served chiplet-locally
    pte_placement: ClassVar[PtePlacement] = PtePlacement.LOCAL

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        self.machine.pager.map_single(
            vaddr,
            PAGE_64K,
            requester,
            allocation.alloc_id,
            self.pool_for(allocation),
        )
