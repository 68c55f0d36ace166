"""Static-analysis placement oracle (SA policy, Sections 2.7 and 5.2).

Models the combination of LASP (code-level threadblock/data locality
analysis) and SUV (LLVM-IR memory-range analysis): for *statically
analysable* structures the compiler can compute exactly which chiplet's
threadblocks will touch each page; for globally shared structures it can
prove the sharing; for irregular structures (pointer chasing, data-
dependent indexing) it cannot do better than a neutral block-round-robin
guess — the fundamental limitation CLAP-SA++ patches with runtime
profiling (Section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..trace.workload import Pattern, StructureSpec, Workload
from ..units import BLOCK_SIZE, PAGE_64K

if TYPE_CHECKING:
    import numpy as np

#: Pages per 2MB VA block: granularity of the fallback round-robin guess.
_PAGES_PER_BLOCK = BLOCK_SIZE // PAGE_64K


class StaticPlacementOracle:
    """Per-structure placement predictions available before launch."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.num_chiplets = workload.num_chiplets

    def is_shared(self, structure: StructureSpec) -> bool:
        """Whether static analysis proves the structure globally shared."""
        return structure.pattern is Pattern.SHARED

    def is_predictable(self, structure: StructureSpec) -> bool:
        """Whether the owner map is statically computable."""
        return structure.sa_predictable and not self.is_shared(structure)

    def predicted_owner_map(self, structure: StructureSpec) -> np.ndarray:
        """Predicted owner chiplet per 64KB page.

        Predictable structures get the exact ownership (the analysis sees
        the index expressions).  Shared and irregular structures get a
        block-granular round-robin spread — the best placement-neutral
        default the driver can apply without runtime information.
        """
        import numpy as np

        pages = structure.num_pages
        if self.is_predictable(structure):
            return np.fromiter(
                (
                    self.workload.owner_of_page(structure, p)
                    for p in range(pages)
                ),
                dtype=np.int8,
                count=pages,
            )
        blocks = np.arange(pages) // _PAGES_PER_BLOCK
        return (blocks % self.num_chiplets).astype(np.int8)

    def predicted_owner(self, structure: StructureSpec, page: int) -> int:
        """Predicted owner of one page (convenience accessor)."""
        if self.is_predictable(structure):
            owner = self.workload.owner_of_page(structure, page)
            assert owner is not None
            return owner
        return (page // _PAGES_PER_BLOCK) % self.num_chiplets
