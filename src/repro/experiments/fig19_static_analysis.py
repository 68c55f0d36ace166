"""Figure 19: CLAP on top of static-analysis placement (Section 5.2).

Four configurations over the whole suite, normalised to SA-64KB:
SA-64KB, SA-2MB, CLAP-SA (static profiling + tree-based size selection)
and CLAP-SA++ (runtime profiling for the statically unpredictable
structures).  Paper numbers: CLAP-SA +18.8%/+16.1% over SA-64KB/SA-2MB;
CLAP-SA++ +23.7%/+21.0%, with the remote ratio cut to 13.6%.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..core.clap_sa import ClapSaPlusPolicy, ClapSaPolicy
from ..policies import SaStaticPolicy
from ..sim.parallel import SweepRunner
from ..units import PAGE_2M, PAGE_64K
from .common import ExperimentResult, Row, gmean, pick_workloads, run_cells

CONFIGS: Tuple[Tuple[str, Callable], ...] = (
    ("SA-64KB", lambda: SaStaticPolicy(PAGE_64K)),
    ("SA-2MB", lambda: SaStaticPolicy(PAGE_2M)),
    ("CLAP-SA", ClapSaPolicy),
    ("CLAP-SA++", ClapSaPlusPolicy),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    normalized: Dict[str, List[float]] = {name: [] for name, _ in CONFIGS}
    remote: Dict[str, List[float]] = {name: [] for name, _ in CONFIGS}
    specs = pick_workloads(quick)
    cells = [(spec, make()) for spec in specs for _, make in CONFIGS]
    flat = iter(run_cells(cells, runner))
    for spec in specs:
        baseline = None
        for name, _ in CONFIGS:
            result = next(flat)
            if baseline is None:
                baseline = result
            value = result.performance / baseline.performance
            normalized[name].append(value)
            remote[name].append(result.remote_ratio)
            rows.append(
                Row(
                    workload=spec.abbr,
                    config=name,
                    value=value,
                    remote_ratio=result.remote_ratio,
                )
            )
    means = {name: gmean(values) for name, values in normalized.items()}
    summary = {f"gmean_{name}": value for name, value in means.items()}
    summary["clap_sa_over_sa2mb"] = means["CLAP-SA"] / means["SA-2MB"]
    summary["clap_sa_pp_over_sa2mb"] = means["CLAP-SA++"] / means["SA-2MB"]
    summary["avg_remote_clap_sa_pp"] = sum(remote["CLAP-SA++"]) / len(
        remote["CLAP-SA++"]
    )
    return ExperimentResult(
        experiment="Figure 19",
        description="static-analysis configurations (norm. to SA-64KB)",
        rows=rows,
        summary=summary,
    )
