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

from ..arch.address import InterleavePolicy
from ..policies import StaticPaging
from ..sim.runner import run_workload
from ..units import PAGE_64K
from ..vm.va_space import Allocation
from .common import ExperimentResult, Row, gmean, pick_workloads


class _RoundRobinPaging(StaticPaging):
    """64KB pages spread round-robin: NUMA-aware layout, no optimisation."""

    def __init__(self) -> None:
        super().__init__(PAGE_64K)
        self.name = "RR-64KB"

    def fault_batch_size(self) -> None:
        """Opt out of bulk faulting: ``place`` maps on a round-robin
        chiplet, not the requester's, so it is not the hook's promised
        ``map_single`` sequence."""
        return None

    def place(self, vaddr: int, requester: int, allocation: Allocation) -> None:
        page_index = (vaddr - allocation.base) // PAGE_64K
        chiplet = page_index % self.machine.num_chiplets
        self.machine.pager.map_single(
            vaddr, PAGE_64K, chiplet, allocation.alloc_id,
            self.pool_for(allocation),
        )


def run(quick: bool = False) -> ExperimentResult:
    rows = []
    ratios = {"numa_no_opt": [], "numa_ft": []}
    for spec in pick_workloads(quick):
        naive = run_workload(
            spec,
            StaticPaging(PAGE_64K),
            interleave=InterleavePolicy.NAIVE,
        )
        # Placement-blind round-robin on the NUMA-aware layout: pages are
        # spread uniformly, like the fine interleave but enforceable.
        no_opt = run_workload(spec, _RoundRobinPaging())
        ft = run_workload(spec, StaticPaging(PAGE_64K))
        for name, result in (
            ("naive", naive),
            ("numa_no_opt", no_opt),
            ("numa_ft", ft),
        ):
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=result.performance / naive.performance,
                    remote_ratio=result.remote_ratio,
                )
            )
        ratios["numa_no_opt"].append(
            no_opt.performance / naive.performance
        )
        ratios["numa_ft"].append(ft.performance / naive.performance)
    return ExperimentResult(
        experiment="Section 2.6",
        description="interleaving policies (norm. to naive 256B interleave)",
        rows=rows,
        summary={
            "gmean_numa_no_opt_vs_naive": gmean(ratios["numa_no_opt"]),
            "gmean_numa_ft_vs_naive": gmean(ratios["numa_ft"]),
        },
    )
