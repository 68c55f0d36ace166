"""The placement-policy interface the simulation engine drives.

A policy owns two decisions the paper identifies as the crux of MCM GPU
memory mapping: *where* (which chiplet) and *at what granularity* (page
size / contiguity) each faulting page is mapped.  It also declares which
translation features its hardware assumes (TLB coalescing, pattern
coalescing, ideal reach, PTE placement) and may react to epochs and
kernel boundaries (migration-based schemes).

The formal contract lives in :mod:`repro.policies.contract`:
:class:`PolicyProtocol` is the structural type, ``validate_policy``
checks an object against it at attach time (raising a typed
:class:`~repro.errors.PolicyContractError`), and
:class:`PolicyCapabilities` is the immutable per-run snapshot of the
capability flags the pipeline stages read.  :class:`PlacementPolicy` is
the convenient ABC satisfying the protocol; policies need not subclass
it as long as they pass validation.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar, Dict, Optional, Set

from ..gmmu.walker import PtePlacement
from ..sim.results import SelectionInfo
from ..trace.workload import Workload
from ..units import PAGE_2M, PAGE_64K
from ..vm.va_space import Allocation
from .contract import (  # noqa: F401  (re-exported: the policy surface)
    CAPABILITY_FLAGS,
    PolicyCapabilities,
    PolicyProtocol,
    REQUIRED_HOOKS,
    validate_policy,
)

if TYPE_CHECKING:
    from ..sim.machine import Machine


class PlacementPolicy(abc.ABC):
    """Base class for all page placement policies.

    Implements :class:`~repro.policies.contract.PolicyProtocol`; the
    class-level capability flags below are the contract's defaults, and
    subclasses override the ones their hardware model changes.
    """

    name: str = "base"
    #: CLAP-style TLB coalescing of deliberately contiguous pages.
    coalescing: ClassVar[bool] = False
    #: Barre-Chord-style coalescing of uniformly interleaved pages.
    pattern_coalescing: ClassVar[bool] = False
    #: 'Ideal' configuration: 2MB reach for 64KB placement, free.
    ideal_translation: ClassVar[bool] = False
    #: PTE page placement seen by the walkers.
    pte_placement: ClassVar[PtePlacement] = PtePlacement.DISTRIBUTED
    #: Whether the engine should maintain per-page access statistics
    #: (needed by migration-based policies; costs simulation time).
    wants_page_stats: ClassVar[bool] = False
    #: Number of epochs per kernel at which :meth:`on_epoch` fires.
    num_epochs: ClassVar[int] = 10

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None
        self.workload: Optional[Workload] = None

    # --- lifecycle ---

    def attach(self, machine: Machine, workload: Workload) -> None:
        """Bind the policy to a machine and workload before the run.

        Validates the concrete policy against the formal contract first
        — a subclass that clobbered a capability flag with the wrong
        type fails here with a :class:`PolicyContractError`, not deep
        inside the per-access loop.
        """
        validate_policy(self)
        self.machine = machine
        self.workload = workload
        machine.pager.native_sizes = self.native_sizes()
        self._setup()

    def _setup(self) -> None:
        """Hook for subclass initialisation after attach."""

    def native_sizes(self) -> Set[int]:
        """Page sizes the system can promote full regions to."""
        return {PAGE_64K, PAGE_2M}

    # --- decisions ---

    @abc.abstractmethod
    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        """Resolve the fault at ``vaddr`` by mapping it somewhere."""

    def on_epoch(
        self,
        epoch: int,
        page_stats: Dict[int, list],
        epoch_remote_ratio: float,
    ) -> None:
        """Called every trace epoch with per-page access counts.

        The pipeline also emits one closing call for a partial tail
        epoch, so end-of-trace statistics always arrive.
        """

    def on_kernel(self, kernel_index: int) -> None:
        """Called at each kernel boundary (multi-kernel scenarios)."""

    # --- reporting ---

    def selection_report(self) -> Dict[str, SelectionInfo]:
        """Final page size per structure (Table 4); empty when static."""
        return {}

    # --- shared helpers ---

    @staticmethod
    def pool_for(allocation: Allocation) -> str:
        """Dedicated frame pool per data structure (Section 4.7)."""
        return f"alloc{allocation.alloc_id}"

    def migrate(
        self, vaddr: int, dst_chiplet: int, pool: str, free_of_cost: bool
    ) -> None:
        """Migrate one page: shootdown, cache flush, remap.

        ``free_of_cost`` skips the cycle accounting (Ideal C-NUMA / GRIT)
        but still performs the TLB invalidation and cache flush so the
        simulated state stays consistent.
        """
        assert self.machine is not None
        record = self.machine.page_table.lookup(vaddr)
        if record is None:
            raise ValueError(f"cannot migrate unmapped address {vaddr:#x}")
        self.machine.shootdown(record.va_base, record.page_size)
        self.machine.flush_data_caches_range(record.paddr, record.page_size)
        self.machine.pager.migrate_page(
            vaddr, dst_chiplet, pool, free_of_cost=free_of_cost
        )
