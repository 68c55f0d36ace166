"""Figure 1: performance and remote ratio across native page sizes.

Bars: performance normalised to the 4KB-page configuration; line: remote
access ratio of memory instructions.  The paper's takeaway: STE/3DC/LPS/
SC degrade as pages grow (remote ratio climbs), while SSSP/DWT/LUD/GPT3
benefit from larger pages without extra remote traffic.  The summary
also reports the introduction's claim that 64KB and 2MB pages cut the
average address-translation latency relative to 4KB pages.
"""

from __future__ import annotations

from typing import Optional

from ..policies import StaticPaging
from ..sim.parallel import SweepRunner
from ..units import NATIVE_PAGE_SIZES, PAGE_4K, size_label
from .common import ExperimentResult, Row, pick_workloads, run_cells

WORKLOADS = ("STE", "3DC", "LPS", "SC", "SSSP", "DWT", "LUD", "GPT3")


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    translation = {size: [] for size in NATIVE_PAGE_SIZES}
    specs = pick_workloads(quick, WORKLOADS)
    cells = [
        (spec, StaticPaging(size))
        for spec in specs
        for size in NATIVE_PAGE_SIZES
    ]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        results = {size: next(flat) for size in NATIVE_PAGE_SIZES}
        baseline = results[PAGE_4K]
        for size, result in results.items():
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=size_label(size),
                    value=result.performance / baseline.performance,
                    remote_ratio=result.remote_ratio,
                )
            )
            if baseline.avg_translation_cycles > 0:
                translation[size].append(
                    1.0
                    - result.avg_translation_cycles
                    / baseline.avg_translation_cycles
                )
    summary = {
        f"avg_translation_reduction_{size_label(size)}": (
            sum(vals) / len(vals)
        )
        for size, vals in translation.items()
        if size != PAGE_4K and vals
    }
    return ExperimentResult(
        experiment="Figure 1",
        description="performance (norm. to 4KB) and remote ratio vs page size",
        rows=rows,
        summary=summary,
    )
