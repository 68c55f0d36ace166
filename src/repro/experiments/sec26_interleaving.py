"""Section 2.6: NUMA-aware interleaving costs nothing and enables a lot.

Three configurations:

* **naive** — monolithic-style 256B chiplet interleaving (placement is
  physically unenforceable);
* **numa_no_opt** — the NUMA-aware layout of Figure 4 but with a
  placement-blind round-robin policy (no NUMA optimisation);
* **numa_ft** — the NUMA-aware layout with first-touch placement (the
  paper's baseline).

Paper claims: naive vs numa_no_opt differ by only ~0.6%; numa_ft beats
naive by ~42%.
"""

from __future__ import annotations

from typing import Optional

from ..arch.address import InterleavePolicy
from ..policies import StaticPaging
from ..sim.parallel import SweepRunner
from ..units import PAGE_64K
from ..vm.va_space import Allocation
from .common import ExperimentResult, Row, gmean, pick_workloads, run_cells


class _RoundRobinPaging(StaticPaging):
    """64KB pages spread round-robin: NUMA-aware layout, no optimisation."""

    def __init__(self) -> None:
        super().__init__(PAGE_64K)
        self.name = "RR-64KB"

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        page_index = (vaddr - allocation.base) // PAGE_64K
        chiplet = page_index % self.machine.num_chiplets
        self.machine.pager.map_single(
            vaddr, PAGE_64K, chiplet, allocation.alloc_id,
            self.pool_for(allocation),
        )


#: (name, policy factory, interleave); the first is the baseline.
CONFIGS = (
    ("naive", lambda: StaticPaging(PAGE_64K), InterleavePolicy.NAIVE),
    # Placement-blind round-robin on the NUMA-aware layout: pages are
    # spread uniformly, like the fine interleave but enforceable.
    ("numa_no_opt", _RoundRobinPaging, InterleavePolicy.NUMA_AWARE),
    ("numa_ft", lambda: StaticPaging(PAGE_64K), InterleavePolicy.NUMA_AWARE),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    ratios = {name: [] for name, _, _ in CONFIGS}
    specs = pick_workloads(quick)
    cells = [
        (spec, make(), None, interleave)
        for spec in specs
        for _, make, interleave in CONFIGS
    ]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        results = {name: next(flat) for name, _, _ in CONFIGS}
        naive = results["naive"]
        for name, result in results.items():
            value = result.performance / naive.performance
            ratios[name].append(value)
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=value,
                    remote_ratio=result.remote_ratio,
                )
            )
    return ExperimentResult(
        experiment="Section 2.6",
        description="interleaving policies (norm. to naive 256B interleave)",
        rows=rows,
        summary={
            "gmean_numa_no_opt_vs_naive": gmean(ratios["numa_no_opt"]),
            "gmean_numa_ft_vs_naive": gmean(ratios["numa_ft"]),
        },
    )
