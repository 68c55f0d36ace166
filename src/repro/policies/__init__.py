"""Page placement policies: the paper's eight comparison configurations.

CLAP itself lives in :mod:`repro.core`; this package holds the baselines:

* :class:`StaticPaging` — S-4KB / S-64KB / S-2MB and the hypothetical
  native intermediate sizes of the Figure 6 sweep;
* :class:`IdealPolicy` — 64KB placement with free 2MB translation reach;
* :class:`MgvmPolicy` — optimised PTE/TLB placement (MGvm);
* :class:`BarreChordPolicy` — interleaved placement with pattern-coalesced
  translations (F-Barre);
* :class:`GritPolicy` — fixed 64KB pages with access-history-guided
  migration (GRIT, idealised zero-cost migration);
* :class:`CNumaPolicy` — reactive global page-size adaptation via
  migration (Ideal C-NUMA, plus the +inter variant);
* :class:`SaStaticPolicy` — static-analysis placement with a fixed page
  size (SA-64KB / SA-2MB, Figure 19).
"""

from .base import PlacementPolicy
from .contract import (
    CAPABILITY_FLAGS,
    PolicyCapabilities,
    PolicyProtocol,
    validate_policy,
)
from .static_paging import StaticPaging
from .ideal import IdealPolicy
from .mgvm import MgvmPolicy
from .barre import BarreChordPolicy
from .grit import GritPolicy
from .cnuma import CNumaPolicy
from .sa_static import SaStaticPolicy

__all__ = [
    "PlacementPolicy",
    "PolicyProtocol",
    "PolicyCapabilities",
    "CAPABILITY_FLAGS",
    "validate_policy",
    "StaticPaging",
    "IdealPolicy",
    "MgvmPolicy",
    "BarreChordPolicy",
    "GritPolicy",
    "CNumaPolicy",
    "SaStaticPolicy",
]
