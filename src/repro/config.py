"""System configuration for the simulated MCM GPU.

Mirrors Table 1 of the paper (baseline simulation configuration) with one
documented deviation: memory footprints in the workload suite are scaled
down by ``GPUConfig.scale`` (default 16x) so a pure-Python trace-driven
simulation stays fast, and the capacity of caches and TLBs is scaled by the
same factor.  Capacity *ratios* (working set vs. TLB reach vs. cache size)
drive every observed effect, and those ratios are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .units import KB, MB, PAGE_2M, PAGE_4K, PAGE_64K


@dataclass(frozen=True)
class TLBConfig:
    """Entry counts for one TLB level, keyed by page size (Table 1)."""

    entries: Dict[int, int]
    latency: int
    associativity: int

    def entries_for(self, page_size: int) -> int:
        """Entry count for ``page_size``, falling back to the 64KB class.

        Hypothetical intermediate sizes (Figure 6) receive dedicated TLBs
        sized like the 64KB ones, per Section 3.3 ("we add extra TLBs for
        each size: 16 entries for L1 and 512 for L2").
        """
        if page_size in self.entries:
            return self.entries[page_size]
        return self.entries[PAGE_64K]


@dataclass(frozen=True)
class GPUConfig:
    """Full MCM GPU configuration (Table 1), scaled for trace-driven runs.

    Attributes
    ----------
    num_chiplets:
        Number of GPU chiplets in the package.
    sms_per_chiplet:
        Streaming multiprocessors per chiplet (64 in the baseline).
    scale:
        Footprint scale-down factor applied to workload sizes *and* to
        capacity-class resources (cache bytes, TLB entries) so capacity
        ratios match the paper's full-size system.
    """

    num_chiplets: int = 4
    sms_per_chiplet: int = 64
    clock_mhz: int = 1132
    scale: int = 16

    # --- caches (per Table 1, full-size; scaled via properties) ---
    l1_cache_bytes: int = 128 * KB  # per SM
    l2_cache_bytes: int = 4 * MB    # per chiplet
    l1_latency: int = 20
    l2_latency: int = 160
    cache_line: int = 128
    l2_ways: int = 16

    # --- TLBs ---
    l1_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(
            entries={PAGE_4K: 32, PAGE_64K: 16, PAGE_2M: 8},
            latency=10,
            associativity=0,  # fully associative
        )
    )
    l2_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(
            entries={PAGE_4K: 1024, PAGE_64K: 512, PAGE_2M: 256},
            latency=80,
            associativity=8,
        )
    )

    # --- interconnect (ring, Table 1) ---
    interchip_bandwidth_gbps: float = 768.0
    interchip_hop_ns: float = 32.0

    # --- DRAM (HBM2) ---
    dram_channels_per_chiplet: int = 16
    dram_bandwidth_tbps: float = 1.8
    trcd: int = 14
    trp: int = 14
    tcl: int = 14
    dram_clock_mhz: int = 877

    # --- GMMU ---
    page_walkers: int = 16
    walk_cache_entries: int = 128
    walk_queue_entries: int = 256
    remote_tracker_entries: int = 32

    # --- virtual memory ---
    page_table_levels: int = 4
    pmm_threshold: float = 0.20
    olp_release_limit: float = 0.05

    def __post_init__(self) -> None:
        if self.num_chiplets < 1:
            raise ValueError("num_chiplets must be >= 1")
        if self.num_chiplets & (self.num_chiplets - 1):
            raise ValueError("num_chiplets must be a power of two")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if not 0.0 < self.pmm_threshold <= 1.0:
            raise ValueError("pmm_threshold must be in (0, 1]")

    # --- scaled capacities used by the simulator ---

    @property
    def total_sms(self) -> int:
        return self.num_chiplets * self.sms_per_chiplet

    @property
    def scaled_l2_cache_bytes(self) -> int:
        """Per-chiplet L2 capacity after footprint scaling (min 16 lines)."""
        return max(self.l2_cache_bytes // self.scale, 16 * self.cache_line)

    #: Per-SM L1 TLBs are private, so SMs hold duplicate entries for
    #: shared pages; the aggregate per-chiplet model discounts the summed
    #: capacity by this factor to account for that replication.
    L1_TLB_SHARING_DISCOUNT = 4

    def scaled_l1_tlb_entries(self, page_size: int) -> int:
        """Aggregate per-chiplet L1 TLB entries for ``page_size``.

        Per-SM L1 TLBs are aggregated across the chiplet's SMs; footprint
        scaling divides the aggregate so reach ratios are preserved, and
        the sharing discount keeps the aggregate below the chiplet's L2
        TLB (as any real L1/L2 pair must be, effective-capacity-wise).
        """
        total = self.l1_tlb.entries_for(page_size) * self.sms_per_chiplet
        return max(total // (self.scale * self.L1_TLB_SHARING_DISCOUNT), 4)

    def scaled_l2_tlb_entries(self, page_size: int) -> int:
        """Chiplet-private L2 TLB entries for ``page_size``, scaled."""
        return max(self.l2_tlb.entries_for(page_size) // self.scale, 4)

    @property
    def hop_cycles(self) -> int:
        """One ring-hop latency converted to core cycles."""
        return round(self.interchip_hop_ns * self.clock_mhz / 1000.0)

    def with_chiplets(self, num_chiplets: int) -> "GPUConfig":
        """A copy of this config with a different chiplet count."""
        return replace(self, num_chiplets=num_chiplets)


def baseline_config() -> GPUConfig:
    """The paper's baseline: 4 chiplets, Table 1 parameters."""
    return GPUConfig()


def eight_chiplet_config() -> GPUConfig:
    """The Figure 22 variant: an 8-chiplet MCM GPU."""
    return GPUConfig(num_chiplets=8)

