"""Figure 21: remote caching under static 2MB paging vs under CLAP.

NUBA and SAC integrated under both paging schemes across the suite,
normalised to static 2MB paging without caching.  Shape: caching adds a
few percent on top of S-2MB (the misplaced-page remote working set
overwhelms it), while CLAP first removes the avoidable remote traffic
and the cache then covers a large fraction of what remains — the
combined configurations reach the paper's ~24% band over the baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.clap import ClapPolicy
from ..policies import StaticPaging
from ..sim.parallel import SweepCell, SweepRunner
from ..units import PAGE_2M
from .common import ExperimentResult, Row, gmean, pick_workloads, run_cells

CONFIGS: Tuple[Tuple[str, Callable, Optional[str]], ...] = (
    ("S-2MB", lambda: StaticPaging(PAGE_2M), None),
    ("S-2MB+NUBA", lambda: StaticPaging(PAGE_2M), "NUBA"),
    ("S-2MB+SAC", lambda: StaticPaging(PAGE_2M), "SAC"),
    ("CLAP", ClapPolicy, None),
    ("CLAP+NUBA", ClapPolicy, "NUBA"),
    ("CLAP+SAC", ClapPolicy, "SAC"),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    normalized: Dict[str, List[float]] = {name: [] for name, _, _ in CONFIGS}
    specs = pick_workloads(quick)
    cells = [
        SweepCell(spec, make(), remote_cache=cache)
        for spec in specs
        for _, make, cache in CONFIGS
    ]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        baseline = None
        for name, _, _ in CONFIGS:
            result = next(flat)
            if baseline is None:
                baseline = result
            value = result.performance / baseline.performance
            normalized[name].append(value)
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=value,
                    remote_ratio=result.remote_ratio,
                    extra={"coverage": result.remote_cache_coverage},
                )
            )
    summary = {
        f"gmean_{name}": gmean(values)
        for name, values in normalized.items()
    }
    return ExperimentResult(
        experiment="Figure 21",
        description="remote caching under S-2MB and CLAP (norm. to S-2MB)",
        rows=rows,
        summary=summary,
    )
