"""Figure 8: per-data-structure remote-ratio sensitivity to page size.

3DC's two structures track each other (both fine-grained), while BFS's
structures diverge: edges/nodes stay local at any size, but the frontier
turns remote as pages grow — different structures within one workload
prefer different page sizes, the motivation for per-structure selection.
"""

from __future__ import annotations

from typing import Optional

from ..policies import StaticPaging
from ..sim.parallel import SweepRunner
from ..units import SWEEP_PAGE_SIZES, size_label
from .common import ExperimentResult, Row, run_cells

#: (workload, structures plotted) as in the paper's figure.
TARGETS = (
    ("3DC", ("vol_in", "vol_out")),
    ("BFS", ("edges", "frontier")),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    targets = TARGETS[:1] if quick else TARGETS
    cells = [
        (abbr, StaticPaging(size))
        for abbr, _ in targets
        for size in SWEEP_PAGE_SIZES
    ]
    flat = iter(run_cells(cells, runner))
    for abbr, structures in targets:
        for size in SWEEP_PAGE_SIZES:
            result = next(flat)
            for structure in structures:
                rows.append(
                    Row(
                        workload=f"{abbr}.{structure}",
                        config=size_label(size),
                        value=result.structure_remote_ratio(structure),
                        remote_ratio=result.structure_remote_ratio(structure),
                    )
                )
    return ExperimentResult(
        experiment="Figure 8",
        description="per-structure remote access ratio vs page size",
        rows=rows,
    )
