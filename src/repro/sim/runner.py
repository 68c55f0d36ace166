"""Convenience entry points for running suite workloads under policies.

``run_workload("STE", clap())`` is the one-liner the examples and the
sweep runner build on; it resolves suite abbreviations, builds the
policy by name when given a string, and memoises nothing — every call is
an independent simulation.

This module does not import the engine itself until a simulation runs,
so the CLI can parse its arguments and build cells without loading
NumPy or the replay modules.
"""

from __future__ import annotations

from typing import Optional, Union

from ..arch.address import InterleavePolicy
from ..config import GPUConfig
from ..trace.suite import workload_by_name
from ..trace.workload import Trace, WorkloadSpec
from .results import SimResult
from .timing import TimingParams


def resolve_policy(policy):
    """Accept a policy instance or a well-known policy name."""
    if not isinstance(policy, str):
        return policy
    from ..core.clap import ClapPolicy
    from ..policies import (
        BarreChordPolicy,
        CNumaPolicy,
        GritPolicy,
        IdealPolicy,
        MgvmPolicy,
        StaticPaging,
    )
    from ..units import parse_size

    key = policy.strip()
    upper = key.upper()
    if upper.startswith("S-"):
        return StaticPaging(parse_size(upper[2:]))
    named = {
        "CLAP": ClapPolicy,
        "IDEAL": IdealPolicy,
        "MGVM": MgvmPolicy,
        "F-BARRE": BarreChordPolicy,
        "BARRE": BarreChordPolicy,
        "GRIT": GritPolicy,
    }
    if upper in named:
        return named[upper]()
    if upper == "IDEAL_C-NUMA":
        return CNumaPolicy(intermediate=False)
    if upper == "IDEAL_C-NUMA+INTER":
        return CNumaPolicy(intermediate=True)
    raise ValueError(f"unknown policy name {policy!r}")


def run_workload(
    workload: Union[str, WorkloadSpec],
    policy,
    config: Optional[GPUConfig] = None,
    *,
    interleave: InterleavePolicy = InterleavePolicy.NUMA_AWARE,
    remote_cache: Optional[str] = None,
    seed: int = 7,
    timing: Optional[TimingParams] = None,
    telemetry: Optional[bool] = None,
    engine: Optional[str] = None,
    trace: Optional[Trace] = None,
) -> SimResult:
    """Run one (workload, policy) pair and return its :class:`SimResult`.

    ``timing=None`` means the default :class:`TimingParams`, constructed
    per call inside the engine (never a shared module-level instance).
    ``telemetry`` forces per-stage telemetry on/off; ``None`` defers to
    the ``REPRO_TELEMETRY`` environment flag.  ``engine="staged"``
    replays on the staged reference pipeline instead of the batched
    default; results are bit-identical either way.  ``trace`` supplies a
    pre-built (e.g. store-attached) trace instead of regenerating one —
    it must match ``(workload, config.num_chiplets, seed)``, which the
    determinism invariant makes exact.
    """
    from .engine import run_simulation

    spec = workload_by_name(workload) if isinstance(workload, str) else workload
    return run_simulation(
        spec,
        resolve_policy(policy),
        config,
        interleave=interleave,
        remote_cache=remote_cache,
        seed=seed,
        timing=timing,
        telemetry=telemetry,
        engine=engine,
        trace=trace,
    )
