"""CLAP+migration: selective migration for cross-kernel reuse (Figure 20).

CLAP never remaps, so a structure whose access pattern *changes* between
kernels (the paper's GEMM C* scenario) stays where the first kernel put
it.  The extension applies C-NUMA-style migration — with its real costs:
TLB shootdowns and page copies are charged — but *only* to structures
that are reused by a later kernel, where CLAP's preemptive organisation
cannot help.  Everything else keeps CLAP's migration-free behaviour.

Migration granularity follows the existing mapping: a promoted 2MB page
whose accesses are dominated by one foreign chiplet moves *as a 2MB
page* (C-NUMA reconstructs large pages after moving them; moving the
intact page costs one shootdown and keeps the translation reach).  Base
pages move individually.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..units import BLOCK_SIZE, PAGE_2M, PAGE_64K, align_down
from .clap import ClapPolicy

#: History thresholds matching the C-NUMA/GRIT migration checks.
_MIN_ACCESSES = 2
_DOMINANCE = 0.6


class ClapMigrationPolicy(ClapPolicy):
    """CLAP plus cost-accounted migration of cross-kernel-reused data."""

    name = "CLAP+migration"
    wants_page_stats = True

    def _setup(self) -> None:
        super()._setup()
        self._seen_alloc_ids: Set[int] = set()
        self._monitored: Set[int] = set()
        self._kernel_index = -1

    def on_kernel(self, kernel_index: int) -> None:
        self._kernel_index = kernel_index
        kernels = self.workload.spec.effective_kernels
        if kernel_index >= len(kernels):
            return
        used_ids = {
            self.workload.allocations[use.name].alloc_id
            for use in kernels[kernel_index].uses
        }
        if kernel_index > 0:
            # Structures touched by an earlier kernel and reused now are
            # migration candidates; fresh structures stay CLAP-managed.
            self._monitored = used_ids & self._seen_alloc_ids
        self._seen_alloc_ids |= used_ids

    def on_epoch(
        self,
        epoch: int,
        page_stats: Dict[int, List[int]],
        epoch_remote_ratio: float,
    ) -> None:
        if self._kernel_index < 1 or not self._monitored:
            return
        num_chiplets = self.machine.num_chiplets
        # Aggregate the per-64KB-page history to 2MB blocks so promoted
        # large pages can be judged (and moved) as a unit.
        block_stats: Dict[int, List[int]] = {}
        for page_base, counts in page_stats.items():
            block = align_down(page_base, BLOCK_SIZE)
            aggregate = block_stats.setdefault(block, [0] * num_chiplets)
            for chiplet, count in enumerate(counts):
                aggregate[chiplet] += count
        page_table = self.machine.page_table
        va_space = self.machine.va_space
        migrated_blocks: Set[int] = set()

        for block, counts in block_stats.items():
            record = page_table.lookup(block)
            if record is None or record.page_size != PAGE_2M:
                continue
            if record.alloc_id not in self._monitored:
                continue
            total = sum(counts)
            if total < _MIN_ACCESSES:
                continue
            dominant = max(range(num_chiplets), key=counts.__getitem__)
            if counts[dominant] < _DOMINANCE * total:
                continue
            if record.chiplet == dominant:
                continue
            allocation = va_space.find(block)
            if allocation is None:
                continue
            # Move the intact 2MB page: one shootdown, full-page copy,
            # translation reach preserved at the destination.
            self.migrate(
                block, dominant, self.pool_for(allocation), free_of_cost=False
            )
            migrated_blocks.add(block)

        for page_base, counts in page_stats.items():
            if align_down(page_base, BLOCK_SIZE) in migrated_blocks:
                continue
            total = sum(counts)
            if total < _MIN_ACCESSES:
                continue
            dominant = max(range(num_chiplets), key=counts.__getitem__)
            if counts[dominant] < _DOMINANCE * total:
                continue
            record = page_table.lookup(page_base)
            if (
                record is None
                or record.page_size != PAGE_64K
                or record.chiplet == dominant
            ):
                continue
            if record.alloc_id not in self._monitored:
                continue
            allocation = va_space.find(page_base)
            if allocation is None:
                continue
            self.migrate(
                page_base,
                dominant,
                self.pool_for(allocation),
                free_of_cost=False,
            )
