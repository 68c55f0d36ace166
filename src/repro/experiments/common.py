"""Shared plumbing for the experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..sim.parallel import (  # noqa: F401  (re-exported for experiments)
    CellFailure,
    OnError,
    SweepCell,
    SweepRunner,
    run_cells,
)
from ..trace.suite import SUITE
from ..trace.workload import WorkloadSpec

#: Default seed: every experiment is deterministic end to end.
SEED = 7

#: Subset used by ``quick=True`` runs (one locality-sensitive, one
#: large-page-friendly, one ML workload).
QUICK_WORKLOADS = ("STE", "BLK", "GPT3")


@dataclass
class Row:
    """One data point: a (workload, configuration) measurement."""

    workload: str
    config: str
    value: float
    remote_ratio: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Rows plus derived summary values for one experiment."""

    experiment: str
    description: str
    rows: List[Row]
    summary: Dict[str, float] = field(default_factory=dict)

    def values(self, config: str) -> List[float]:
        return [r.value for r in self.rows if r.config == config]

    def row(self, workload: str, config: str) -> Row:
        for r in self.rows:
            if r.workload == workload and r.config == config:
                return r
        raise KeyError((workload, config))

    def configs(self) -> List[str]:
        seen: List[str] = []
        for r in self.rows:
            if r.config not in seen:
                seen.append(r.config)
        return seen

    def workloads(self) -> List[str]:
        seen: List[str] = []
        for r in self.rows:
            if r.workload not in seen:
                seen.append(r.workload)
        return seen

    def format(self) -> str:
        """Render the figure/table as fixed-width text."""
        configs = self.configs()
        workloads = self.workloads()
        width = max([len(c) for c in configs] + [10])
        lines = [f"== {self.experiment}: {self.description}"]
        header = f"{'workload':10s}" + "".join(
            f"{c:>{width + 2}s}" for c in configs
        )
        lines.append(header)
        for workload in workloads:
            cells = []
            for config in configs:
                try:
                    row = self.row(workload, config)
                except KeyError:
                    cells.append(f"{'-':>{width + 2}s}")
                    continue
                text = f"{row.value:.3f}"
                if row.remote_ratio is not None:
                    text += f"/{row.remote_ratio:.2f}"
                cells.append(f"{text:>{width + 2}s}")
            lines.append(f"{workload:10s}" + "".join(cells))
        if self.summary:
            lines.append("-- summary --")
            for key, value in self.summary.items():
                lines.append(f"{key}: {value:.4f}")
        return "\n".join(lines)


def gmean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's averaging convention for speedups)."""
    # Plain ``math`` on purpose.  NumPy's float64 log/exp run through
    # SIMD kernels chosen for the CPU at hand, so its mean could move
    # with the host; libm's scalar log/exp and the exactly rounded fsum
    # do not.  A report read from the cache then loads no NumPy at all.
    if not values:
        raise ValueError("gmean of an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("gmean requires positive values")
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def pick_workloads(
    quick: bool, names: Optional[Sequence[str]] = None
) -> List[WorkloadSpec]:
    """The experiment's workload list, reduced under ``quick``."""
    if names is None:
        names = [w.abbr for w in SUITE]
    if quick:
        preferred = [n for n in names if n in QUICK_WORKLOADS]
        names = preferred if preferred else list(names)[:2]
    by_name = {w.abbr: w for w in SUITE}
    return [by_name[n] for n in names]
