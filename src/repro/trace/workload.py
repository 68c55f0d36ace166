"""Workload specifications and bound workload instances.

The paper's workloads are real CUDA programs; what every mechanism in the
paper keys on, however, is the *structure* of their address streams:

* which chiplet predominantly accesses each region of each data
  structure (the chiplet-locality groups of Section 3.4),
* the granularity of those groups (consistent within a structure),
* whether a structure is globally shared (matrix B in GEMM),
* how predictable the pattern is (irregular workloads add cross-chiplet
  noise and defeat static analysis),
* the order pages are first touched in (sequential scans fill 2MB VA
  blocks early; tiled/strided scans leave blocks partially mapped during
  PMM, triggering CLAP's OLP fallback — Section 5.1's LUD/GEMM cases).

:class:`StructureSpec` captures exactly those properties.  Sizes carry
both the paper's footprint (``paper_size``, for documentation) and the
simulated footprint (``sim_size``), chosen so that pure-Python runs stay
fast while preserving the page-count regimes that matter (structures
above ~10MB have enough 2MB VA blocks for MMA; smaller ones fall back to
OLP, as in the paper).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..units import PAGE_64K, pages_in
from ..vm.va_space import Allocation, VASpace

if TYPE_CHECKING:
    import numpy as np


class Pattern(enum.Enum):
    """How a structure's pages are divided among chiplets."""

    #: Round-robin runs of ``group_pages`` 64KB pages across chiplets —
    #: fine-grained chiplet-locality (stencils, interleaved domains).
    PARTITIONED = "partitioned"
    #: Each chiplet owns one contiguous slab — coarse chiplet-locality
    #: (row-partitioned matrices, blocked domains).
    CONTIGUOUS = "contiguous"
    #: Accessed uniformly by all chiplets (matrix B in GEMM).
    SHARED = "shared"


class Scan(enum.Enum):
    """First-touch order of a structure's pages."""

    SEQUENTIAL = "sequential"
    #: Tiled traversal: strides across VA blocks, leaving each block
    #: partially mapped until late in execution.
    BLOCK_STRIDED = "block_strided"


@dataclass(frozen=True)
class StructureSpec:
    """One GPU data structure of a workload."""

    name: str
    paper_size: int
    sim_size: int
    pattern: Pattern
    group_pages: int = 1
    scan: Scan = Scan.SEQUENTIAL
    #: probability an access comes from a random chiplet (irregularity)
    noise: float = 0.0
    #: whether compiler static analysis can predict the owner map
    sa_predictable: bool = True
    waves: int = 3
    lines_per_touch: int = 6

    def __post_init__(self) -> None:
        if self.sim_size < PAGE_64K:
            raise ValueError("sim_size must be at least one 64KB page")
        if self.group_pages < 1:
            raise ValueError("group_pages must be >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must be in [0, 1]")
        if self.waves < 1 or self.lines_per_touch < 1:
            raise ValueError("waves and lines_per_touch must be >= 1")

    @property
    def num_pages(self) -> int:
        """Simulated 64KB page count."""
        return pages_in(self.sim_size, PAGE_64K)


@dataclass(frozen=True)
class StructureUsage:
    """How one kernel uses one structure (multi-kernel scenarios, Fig. 20)."""

    name: str
    #: fraction of the structure's pages the kernel touches
    subset: float = 1.0
    #: rotate page ownership by this many chiplets (changed access pattern)
    owner_shift: int = 0
    waves: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.subset <= 1.0:
            raise ValueError("subset must be in (0, 1]")


@dataclass(frozen=True)
class KernelSpec:
    """One kernel launch: which structures it touches and how."""

    name: str
    uses: Tuple[StructureUsage, ...]


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete workload (Table 2 row)."""

    abbr: str
    title: str
    structures: Tuple[StructureSpec, ...]
    tb_count: int
    #: fraction of warp instructions that are memory instructions
    mem_fraction: float = 0.30
    kernels: Tuple[KernelSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.structures:
            raise ValueError("a workload needs at least one structure")
        if not 0.0 < self.mem_fraction <= 1.0:
            raise ValueError("mem_fraction must be in (0, 1]")
        names = [s.name for s in self.structures]
        if len(set(names)) != len(names):
            raise ValueError("structure names must be unique")

    def structure(self, name: str) -> StructureSpec:
        for spec in self.structures:
            if spec.name == name:
                return spec
        raise KeyError(name)

    @property
    def effective_kernels(self) -> Tuple[KernelSpec, ...]:
        """The kernel list; single-kernel workloads get a default kernel."""
        if self.kernels:
            return self.kernels
        return (
            KernelSpec(
                name="main",
                uses=tuple(
                    StructureUsage(name=s.name) for s in self.structures
                ),
            ),
        )

    @property
    def total_paper_bytes(self) -> int:
        return sum(s.paper_size for s in self.structures)

    @property
    def total_sim_bytes(self) -> int:
        return sum(s.sim_size for s in self.structures)


@dataclass
class Trace:
    """A generated access trace: one entry per memory (line) access.

    A trace is an *arena-backed columnar record*: ``chiplets``,
    ``vaddrs`` and ``alloc_ids`` are read-only views over one
    contiguous buffer laid out by :mod:`repro.trace.arena` — the same
    layout the format-v2 archive memory-maps, so a trace attached from
    the on-disk :class:`~repro.trace.store.TraceStore` and a trace
    generated in-process are indistinguishable to every engine.

    All three column arrays carry ``writeable=False``: a trace may be
    shared zero-copy across sweep workers (and, via ``mmap``, across
    machines), so any in-place mutation would silently desync replays —
    freezing turns that bug class into an immediate ``ValueError``.
    Construction accepts loose arrays and packs them into a fresh arena;
    loaders that already hold an arena (or a memmap of one) pass it via
    ``arena`` and the columns are adopted as-is.
    """

    chiplets: np.ndarray
    vaddrs: np.ndarray
    alloc_ids: np.ndarray
    #: start index of each kernel within the arrays
    kernel_starts: List[int]
    n_warp_instructions: int
    #: the backing buffer (1-D uint8; possibly an ``np.memmap``) the
    #: column arrays are views over
    arena: Optional[np.ndarray] = None
    #: where the columns came from: ``"generated"`` (built in this
    #: process), ``"archive"`` (loaded from a trace file) or
    #: ``"store"`` (attached zero-copy from the shared TraceStore)
    source: str = "generated"

    def __post_init__(self) -> None:
        import numpy as np

        from . import arena as _arena

        n = len(self.vaddrs)
        if len(self.chiplets) != n or len(self.alloc_ids) != n:
            raise ValueError("trace arrays must have equal length")
        if self.arena is None:
            # Loose arrays (legacy construction, v1 archives): pack them
            # into a fresh arena so every trace shares one layout.
            buffer, views = _arena.allocate(n)
            for name, _dtype in _arena.COLUMNS:
                np.copyto(views[name], getattr(self, name), casting="same_kind")
            self.chiplets = views["chiplets"]
            self.vaddrs = views["vaddrs"]
            self.alloc_ids = views["alloc_ids"]
            self.arena = buffer
        _arena.freeze(self.arena, self.chiplets, self.vaddrs, self.alloc_ids)

    def __len__(self) -> int:
        return len(self.vaddrs)

    @property
    def nbytes(self) -> int:
        """Arena bytes backing the trace (what sharing it saves)."""
        return int(self.arena.nbytes) if self.arena is not None else 0


class Workload:
    """A workload spec bound to a VA space and a chiplet count.

    Owns the allocations, the per-page ownership maps, and trace
    generation.  Ownership is exposed so that experiments (Figure 10) and
    the static-analysis oracle can inspect the ground truth.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        num_chiplets: int,
        va_space: Optional[VASpace] = None,
        seed: int = 7,
    ) -> None:
        import numpy as np

        if num_chiplets < 1:
            raise ValueError("num_chiplets must be >= 1")
        self.spec = spec
        self.num_chiplets = num_chiplets
        self.seed = seed
        self.va_space = va_space if va_space is not None else VASpace()
        self.allocations: Dict[str, Allocation] = {}
        for structure in spec.structures:
            self.allocations[structure.name] = self.va_space.allocate(
                structure.name, structure.sim_size
            )
        self._rng = np.random.default_rng(seed)
        self._first_touch_owner: Dict[str, np.ndarray] = {}

    # --- ownership ---

    def owner_of_page(self, structure: StructureSpec, page: int) -> Optional[int]:
        """Ground-truth owner chiplet of a 64KB page, or None when shared."""
        n = self.num_chiplets
        if structure.pattern is Pattern.PARTITIONED:
            return (page // structure.group_pages) % n
        if structure.pattern is Pattern.CONTIGUOUS:
            return min(page * n // structure.num_pages, n - 1)
        return None

    def owner_map(self, structure: StructureSpec) -> np.ndarray:
        """Owner chiplet per page; shared structures get a random draw.

        For shared structures, the returned array is the *first-touch*
        owner (which chiplet happens to fault each page first) — stable
        per workload instance, mirroring a real run.
        """
        cached = self._first_touch_owner.get(structure.name)
        if cached is not None:
            return cached
        import numpy as np

        pages = structure.num_pages
        if structure.pattern is Pattern.SHARED:
            # zlib.crc32, not hash(): string hashes are salted per
            # process, and first-touch owners must not depend on which
            # process (or parallel sweep worker) builds the workload.
            name_hash = zlib.crc32(structure.name.encode("utf-8"))
            rng = np.random.default_rng((self.seed, name_hash & 0xFFFF))
            owners = rng.integers(0, self.num_chiplets, size=pages, dtype=np.int8)
        else:
            owners = np.fromiter(
                (self.owner_of_page(structure, p) for p in range(pages)),
                dtype=np.int8,
                count=pages,
            )
        self._first_touch_owner[structure.name] = owners
        return owners

    # --- trace generation (delegated to generators) ---

    def build_trace(self, seed: Optional[int] = None) -> Trace:
        from .generators import build_trace

        return build_trace(self, seed if seed is not None else self.seed)
