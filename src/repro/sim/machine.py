"""The simulated MCM GPU: all hardware state bundled per run.

A :class:`Machine` owns one instance of every substrate — address layout,
frame allocator, VA space, page table, demand pager, per-chiplet TLB
paths, page walkers with Remote Trackers, data caches, remote-caching
scheme, ring interconnect and DRAM — wired together per the baseline
architecture (Figure 3, Table 1).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

from ..arch.address import AddressLayout, InterleavePolicy
from ..arch.topology import RingTopology
from ..cache.cache import SetAssociativeCache
from ..cache.remote_cache import RemoteCachingScheme, make_remote_cache
from ..config import GPUConfig
from ..gmmu.fault_buffer import FaultBuffer
from ..gmmu.remote_tracker import RemoteTracker
from ..gmmu.walker import PageWalker, PtePlacement
from ..mem.dram import DramChannelModel
from ..mem.frames import FrameAllocator
from ..tlb.hierarchy import TranslationPath
from ..vm.fault import DemandPager
from ..vm.page_table import PageTable
from ..vm.va_space import VASpace


class Machine:
    """One fully wired MCM GPU instance."""

    def __init__(
        self,
        config: GPUConfig,
        interleave: InterleavePolicy = InterleavePolicy.NUMA_AWARE,
        remote_cache: Optional[str] = None,
        pte_placement: PtePlacement = PtePlacement.DISTRIBUTED,
        capacity_blocks_per_chiplet: Optional[int] = None,
        multi_page_tlb: bool = False,
    ) -> None:
        self.config = config
        n = config.num_chiplets
        self.layout = AddressLayout(
            num_chiplets=n,
            channels_per_chiplet=config.dram_channels_per_chiplet,
            policy=interleave,
        )
        self.allocator = FrameAllocator(
            self.layout, capacity_blocks_per_chiplet
        )
        self.va_space = VASpace()
        self.page_table = PageTable()
        self.pager = DemandPager(
            self.page_table, self.allocator, self.va_space
        )
        self.ring = RingTopology(
            num_chiplets=n,
            hop_cycles=config.hop_cycles,
            bandwidth_gbps=config.interchip_bandwidth_gbps,
            clock_mhz=config.clock_mhz,
        )
        self.paths: List[TranslationPath] = [
            TranslationPath(config, c, multi_page=multi_page_tlb)
            for c in range(n)
        ]
        self.remote_trackers: List[RemoteTracker] = [
            RemoteTracker(config.remote_tracker_entries) for _ in range(n)
        ]
        self.walkers: List[PageWalker] = [
            PageWalker(
                config,
                c,
                remote_tracker=self.remote_trackers[c],
                placement=pte_placement,
            )
            for c in range(n)
        ]
        self.fault_buffers: List[FaultBuffer] = [
            FaultBuffer(config.walk_queue_entries) for _ in range(n)
        ]
        self.l1_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(
                max(config.scaled_l2_cache_bytes // 4, 16 * config.cache_line),
                ways=8,
                line_size=config.cache_line,
            )
            for _ in range(n)
        ]
        self.l2_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(
                config.scaled_l2_cache_bytes,
                ways=config.l2_ways,
                line_size=config.cache_line,
            )
            for _ in range(n)
        ]
        self.remote_caches: Optional[List[RemoteCachingScheme]] = None
        if remote_cache is not None:
            self.remote_caches = [
                make_remote_cache(remote_cache, config) for _ in range(n)
            ]
        self.dram = DramChannelModel(
            num_channels=self.layout.total_channels,
            trcd=config.trcd,
            trp=config.trp,
            tcl=config.tcl,
            dram_clock_mhz=config.dram_clock_mhz,
            core_clock_mhz=config.clock_mhz,
        )
        #: ``(paddr, size)`` ranges flushed inside an open
        #: :meth:`flush_batch`; None outside one.
        self._deferred_flush: Optional[List[Tuple[int, int]]] = None
        #: Called before a flush outside :meth:`flush_batch`, by an
        #: engine that replays the data path after the fact (the
        #: batched engine's per-chunk pass): it serves the accesses
        #: already replayed, so the flush still follows every one.
        self.before_flush: Optional[Callable[[], None]] = None

    @property
    def num_chiplets(self) -> int:
        return self.config.num_chiplets

    def register_allocation(self, alloc_id: int) -> None:
        """Announce an allocation ID to every chiplet's Remote Tracker."""
        for tracker in self.remote_trackers:
            tracker.register(alloc_id)

    def rt_ratio(self, alloc_id: int) -> float:
        """Aggregate remote ratio estimate across chiplet RTs (drains them)."""
        accesses = 0
        remotes = 0
        for tracker in self.remote_trackers:
            a, r = tracker.collect(alloc_id)
            accesses += a
            remotes += r
        return remotes / accesses if accesses else 0.0

    def shootdown(self, tag: int, size_class: int) -> None:
        """Invalidate a translation unit in every chiplet's TLBs."""
        for path in self.paths:
            path.shootdown(tag, size_class)

    def flush_data_caches_range(self, paddr: int, size: int) -> None:
        """Drop cached lines for a migrated physical range.

        Immediate outside :meth:`flush_batch`; inside one, the range is
        recorded and dropped when the batch exits.
        """
        if self._deferred_flush is not None:
            self._deferred_flush.append((paddr, size))
            return
        if self.before_flush is not None:
            self.before_flush()
        for cache in self.l1_caches + self.l2_caches:
            cache.invalidate_range(paddr, size)

    @contextmanager
    def flush_batch(self) -> Iterator[None]:
        """Defer data-cache flushes to the end of the ``with`` block.

        On exit each L1 and L2 drops the union of the recorded ranges in
        one pass.  The result equals flushing each range on the spot as
        long as no data cache is read or filled inside the block: the
        epoch callback, where every migration happens, is such a block
        (DESIGN.md section 7).
        """
        if self._deferred_flush is not None:
            raise RuntimeError("flush batches do not nest")
        self._deferred_flush = []
        try:
            yield
        finally:
            ranges, self._deferred_flush = self._deferred_flush, None
            if ranges:
                for cache in self.l1_caches + self.l2_caches:
                    cache.invalidate_ranges(ranges)

    @property
    def l2_misses(self) -> int:
        return sum(c.misses for c in self.l2_caches)

    @property
    def l2_tlb_misses(self) -> int:
        return sum(p.walks for p in self.paths)
