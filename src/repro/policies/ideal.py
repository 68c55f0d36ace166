"""The 'Ideal' configuration (Section 5, configuration 9).

Data pages are placed with fine 64KB granularity (first touch), but the
translation hardware magically provides 2MB reach: fine-grained data
placement *and* large-page translation efficiency at once.  This bounds
what any page-size selection scheme — CLAP included — can achieve.
"""

from __future__ import annotations

from typing import ClassVar

from ..units import PAGE_64K
from ..vm.va_space import Allocation
from .base import PlacementPolicy


class IdealPolicy(PlacementPolicy):
    """64KB first-touch placement with free 2MB translation reach."""

    name = "Ideal"
    #: contract override: magic 2MB reach at 64KB placement granularity
    ideal_translation: ClassVar[bool] = True

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        self.machine.pager.map_single(
            vaddr,
            PAGE_64K,
            requester,
            allocation.alloc_id,
            self.pool_for(allocation),
        )
