"""Figure 10: how much of each data structure exhibits chiplet-locality.

The measurement mirrors Section 3.4: each structure is mapped with small
(64KB) pages under first-touch placement; the resulting page-to-chiplet
map is analysed per 2MB block with the locality tree; the structure's
group granularity is the dominant locality degree across its blocks, and
the reported proportion is the fraction of the structure's full blocks
that exhibit at least that degree.  Globally shared structures count as
100% chiplet-locality (from each chiplet's perspective the whole range
is uniformly accessed), and structures below 2MB are excluded, both per
the paper.  The paper reports a 93.5% average.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, List, Optional

from ..config import baseline_config
from ..core.mma import locality_level
from ..sim.parallel import SweepRunner
from ..trace.workload import Pattern, Workload
from ..units import BLOCK_SIZE, PAGE_2M, PAGE_64K
from .common import SEED, ExperimentResult, Row, pick_workloads

if TYPE_CHECKING:
    import numpy as np

#: Pages per full 2MB block.
_SLOTS = BLOCK_SIZE // PAGE_64K


def first_touch_owners(workload: Workload, name: str) -> np.ndarray:
    """Owner chiplet of each 64KB page under first-touch mapping.

    Derived directly from the trace: the chiplet issuing the first access
    to each page is where first-touch demand paging places it.
    """
    import numpy as np

    trace = workload.build_trace(SEED)
    allocation = workload.allocations[name]
    mask = trace.alloc_ids == allocation.alloc_id
    pages = (trace.vaddrs[mask] - allocation.base) // PAGE_64K
    chiplets = trace.chiplets[mask]
    num_pages = allocation.size // PAGE_64K
    owners = np.full(num_pages, -1, dtype=np.int64)
    _, first_index = np.unique(pages, return_index=True)
    touched = pages[first_index]
    owners[touched] = chiplets[first_index]
    return owners


#: 'Predominantly accessed by the same chiplet' (Section 3.4): a group
#: qualifies when at least this share of its pages map to one chiplet.
PREDOMINANCE = 0.9


def structure_locality_proportion(owners: np.ndarray) -> float:
    """Fraction of full blocks exhibiting the structure's dominant degree.

    The structure's group granularity is the *mode* of the per-block
    locality degrees (degree 0 = 64KB groups is a valid granularity —
    3DC's structures genuinely have 64KB chiplet-locality); the
    proportion is the share of blocks reaching at least that degree.
    """
    blocks: List[List[int]] = []
    for start in range(0, len(owners) - _SLOTS + 1, _SLOTS):
        block = owners[start:start + _SLOTS]
        if (block < 0).any():
            continue
        blocks.append([int(o) for o in block])
    if not blocks:
        return 0.0
    degrees = [locality_level(block, PREDOMINANCE) for block in blocks]
    tally = Counter(degrees)
    dominant = max(tally.items(), key=lambda kv: (kv[1], kv[0]))[0]
    qualifying = sum(1 for d in degrees if d >= dominant)
    return qualifying / len(degrees)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    """Trace analysis only: ``runner`` is accepted and never used."""
    config = baseline_config()
    rows = []
    per_workload = []
    for spec in pick_workloads(quick):
        workload = Workload(spec, config.num_chiplets, seed=SEED)
        proportions = []
        for structure in spec.structures:
            if structure.sim_size < PAGE_2M:
                continue  # paper excludes structures below 2MB
            if structure.pattern is Pattern.SHARED:
                proportions.append(1.0)
                continue
            owners = first_touch_owners(workload, structure.name)
            proportions.append(structure_locality_proportion(owners))
        if not proportions:
            continue
        value = sum(proportions) / len(proportions)
        per_workload.append(value)
        rows.append(Row(workload=spec.abbr, config="locality", value=value))
    return ExperimentResult(
        experiment="Figure 10",
        description="proportion of address range exhibiting chiplet-locality",
        rows=rows,
        summary={"average": sum(per_workload) / len(per_workload)},
    )
