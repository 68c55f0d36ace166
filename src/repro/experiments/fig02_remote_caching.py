"""Figure 2: remote caching vs. fixing the page size.

Four configurations on the high-remote workloads, normalised to 2MB
static paging without caching: 2MB+NUBA, 2MB+SAC, and 64KB without
caching.  The paper's point: caching moderately alleviates 2MB
misplacement (+13.1% / +5.8% average), but simply using the right page
size (+36.7%) beats both — the remote traffic from misplaced large pages
overwhelms any bounded cache.
"""

from __future__ import annotations

from typing import Optional

from ..policies import StaticPaging
from ..sim.parallel import SweepCell, SweepRunner
from ..units import PAGE_2M, PAGE_64K
from .common import ExperimentResult, Row, gmean, pick_workloads, run_cells

WORKLOADS = ("STE", "3DC", "LPS", "PAF", "SC")

#: The first configuration is the normalisation baseline.
CONFIGS = (
    ("2MB_No_RC", PAGE_2M, None),
    ("2MB+NUBA", PAGE_2M, "NUBA"),
    ("2MB+SAC", PAGE_2M, "SAC"),
    ("64KB_No_RC", PAGE_64K, None),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    speedups = {name: [] for name, _, _ in CONFIGS}
    specs = pick_workloads(quick, WORKLOADS)
    cells = [
        SweepCell(spec, StaticPaging(size), remote_cache=cache)
        for spec in specs
        for _, size, cache in CONFIGS
    ]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        baseline = None
        for name, _, _ in CONFIGS:
            result = next(flat)
            if baseline is None:
                baseline = result
            speedup = result.performance / baseline.performance
            speedups[name].append(speedup)
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=speedup,
                    remote_ratio=result.remote_ratio,
                    extra={"coverage": result.remote_cache_coverage},
                )
            )
    summary = {
        f"gmean_{name}": gmean(values) for name, values in speedups.items()
    }
    return ExperimentResult(
        experiment="Figure 2",
        description="remote caching vs page size (norm. to 2MB no caching)",
        rows=rows,
        summary=summary,
    )
