"""Figure 20: cross-kernel reuse and CLAP+migration.

The GEMM scenario whose output C* is reused by a second kernel with a
different access pattern, run under S-64KB (the normalisation baseline),
S-2MB, CLAP, Ideal C-NUMA, GRIT and CLAP+migration — the last with page
migration costs charged (TLB shootdowns, copies).  Shape: CLAP alone
cannot remap C* (its remote ratio stays high); migration-based schemes
repair C* but lack CLAP's page sizing; CLAP+migration combines both and
wins.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.clap import ClapPolicy
from ..core.migration import ClapMigrationPolicy
from ..policies import CNumaPolicy, GritPolicy, StaticPaging
from ..sim.parallel import SweepRunner
from ..trace.suite import gemm_reuse_scenario
from ..units import PAGE_2M, PAGE_64K
from .common import ExperimentResult, Row, run_cells

CONFIGS: Tuple[Tuple[str, Callable], ...] = (
    ("S-64KB", lambda: StaticPaging(PAGE_64K)),
    ("S-2MB", lambda: StaticPaging(PAGE_2M)),
    ("CLAP", ClapPolicy),
    ("Ideal_C-NUMA", lambda: CNumaPolicy(intermediate=False)),
    ("GRIT", GritPolicy),
    ("CLAP+migration", ClapMigrationPolicy),
)


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    spec = gemm_reuse_scenario()
    rows = []
    baseline = None
    values = {}
    flat = iter(run_cells([(spec, make()) for _, make in CONFIGS], runner))
    for name, _ in CONFIGS:
        result = next(flat)
        if baseline is None:
            baseline = result
        value = result.performance / baseline.performance
        values[name] = value
        rows.append(
            Row(
                workload=spec.abbr,
                config=name,
                value=value,
                remote_ratio=result.remote_ratio,
                extra={
                    "migrations": result.migrations,
                    "cstar_remote": result.structure_remote_ratio(
                        "matrix_Cstar"
                    ),
                },
            )
        )
    return ExperimentResult(
        experiment="Figure 20",
        description="GEMM C* reuse scenario (norm. to S-64KB)",
        rows=rows,
        summary={f"perf_{name}": value for name, value in values.items()},
    )
