"""Energy experiment: memory-system energy per paging scheme.

Not a paper figure, but the paper's motivation (Section 1/2.1: remote
chiplet accesses "incur additional latency and energy consumption").
Reports per-workload total energy normalised to S-64KB and the ring
(inter-chip) share of each configuration's energy.
"""

from __future__ import annotations

from typing import Optional

from ..core.clap import ClapPolicy
from ..policies import StaticPaging
from ..sim.parallel import SweepRunner
from ..units import PAGE_2M, PAGE_64K
from .common import ExperimentResult, Row, gmean, pick_workloads, run_cells

WORKLOADS = ("STE", "LPS", "SC", "BLK", "GPT3")

CONFIGS = (
    ("S-64KB", lambda: StaticPaging(PAGE_64K)),
    ("S-2MB", lambda: StaticPaging(PAGE_2M)),
    ("CLAP", ClapPolicy),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    totals = {name: [] for name, _ in CONFIGS}
    specs = pick_workloads(quick, WORKLOADS)
    cells = [(spec, make()) for spec in specs for _, make in CONFIGS]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        results = {name: next(flat) for name, _ in CONFIGS}
        baseline = results["S-64KB"].energy.total
        for name, result in results.items():
            energy = result.energy
            value = energy.total / baseline
            totals[name].append(value)
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=value,
                    extra={
                        "ring_share": energy.ring_share,
                        "total_pj": energy.total,
                    },
                )
            )
    summary = {
        f"gmean_energy_{name}": gmean(values)
        for name, values in totals.items()
    }
    return ExperimentResult(
        experiment="Energy study",
        description="memory-system energy (norm. to S-64KB)",
        rows=rows,
        summary=summary,
    )
