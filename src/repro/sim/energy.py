"""Memory-system energy accounting.

The paper's motivation leans on energy as much as latency: "accessing
data on remote chiplets incurs additional latency *and energy
consumption*" (Section 1, citing MCM-GPU).  This module charges each
memory-system event with a per-event energy drawn from published
estimates for HBM2-class systems (MCM-GPU, ISCA'17; Fine-Grained DRAM,
HPCA'17): on-chip SRAM accesses cost tens of pJ per 128B line, DRAM
costs a few nJ, and each on-package ring-link traversal costs roughly
~1 pJ/bit.

The absolute joules are indicative; the *relative* picture is the
point: misplaced large pages turn local traffic into multi-hop ring
traffic and DRAM re-fetches, and CLAP's placement eliminates exactly
that component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .machine import Machine


@dataclass(frozen=True)
class EnergyParams:
    """Per-event energies in picojoules (per 128B line unless noted)."""

    pj_l1_access: float = 30.0
    pj_l2_access: float = 150.0
    pj_dram_access: float = 3500.0
    #: per 128B per ring-link traversal (~1.2 pJ/bit on-package SerDes)
    pj_ring_hop_per_line: float = 1200.0
    #: per page-walk memory step (a PTE-line fetch)
    pj_walk_step: float = 150.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per component, in picojoules."""

    l1: float
    l2: float
    dram: float
    ring: float
    translation: float

    @property
    def total(self) -> float:
        return self.l1 + self.l2 + self.dram + self.ring + self.translation

    @property
    def ring_share(self) -> float:
        return self.ring / self.total if self.total else 0.0

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.l1 * factor,
            self.l2 * factor,
            self.dram * factor,
            self.ring * factor,
            self.translation * factor,
        )


def energy_report(
    machine: Machine, params: EnergyParams = EnergyParams()
) -> EnergyBreakdown:
    """Fold the machine's event counters into an energy breakdown."""
    l1_accesses = sum(c.accesses for c in machine.l1_caches)
    l2_accesses = sum(c.accesses for c in machine.l2_caches)
    if machine.remote_caches is not None:
        l2_accesses += sum(
            rc.cache.accesses for rc in machine.remote_caches
        )
    dram_accesses = machine.dram.accesses
    line = machine.config.cache_line
    ring_line_hops = machine.ring.hop_bytes / line
    walk_steps = sum(
        w.stats.local_steps + w.stats.remote_steps for w in machine.walkers
    )
    return EnergyBreakdown(
        l1=l1_accesses * params.pj_l1_access,
        l2=l2_accesses * params.pj_l2_access,
        dram=dram_accesses * params.pj_dram_access,
        ring=ring_line_hops * params.pj_ring_hop_per_line,
        translation=walk_steps * params.pj_walk_step,
    )
