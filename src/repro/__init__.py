"""CLAP reproduction: chiplet-locality-aware page placement for MCM GPUs.

Public API quick tour::

    from repro import run_workload, ClapPolicy, StaticPaging

    result = run_workload("STE", ClapPolicy())
    base = run_workload("STE", StaticPaging(64 * 1024))
    print(result.speedup_over(base), result.remote_ratio)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

import importlib

#: Where each public name lives.  Names resolve on first access
#: (PEP 562), so ``import repro`` loads neither NumPy nor the replay
#: engine; a command that only reads the result cache never pays for
#: them.
_EXPORTS = {
    ".config": ("GPUConfig", "baseline_config", "eight_chiplet_config"),
    ".errors": (
        "ChaosError",
        "InvariantViolation",
        "MemoryExhaustedError",
        "PolicyMappingError",
        "SimulationError",
        "SweepError",
        "TraceFormatError",
    ),
    ".core.clap": ("AllocationPhase", "ClapPolicy"),
    ".core.clap_sa": ("ClapSaPlusPolicy", "ClapSaPolicy"),
    ".core.migration": ("ClapMigrationPolicy",),
    ".policies": (
        "BarreChordPolicy",
        "CNumaPolicy",
        "GritPolicy",
        "IdealPolicy",
        "MgvmPolicy",
        "PlacementPolicy",
        "SaStaticPolicy",
        "StaticPaging",
    ),
    ".sim.energy": ("EnergyBreakdown", "EnergyParams", "energy_report"),
    ".sim.engine": ("run_simulation",),
    ".sim.chaos": ("ChaosSchedule", "FaultKind"),
    ".sim.parallel": (
        "CellFailure",
        "OnError",
        "ResultCache",
        "SweepCell",
        "SweepRunner",
    ),
    ".sim.results": ("SimResult",),
    ".sim.runner": ("run_workload",),
    ".sim.validation": ("validate_machine",),
    ".trace.suite": ("SUITE", "gemm_reuse_scenario", "workload_by_name"),
    ".trace.workload": ("Workload", "WorkloadSpec"),
    ".units": ("GB", "KB", "MB", "PAGE_2M", "PAGE_4K", "PAGE_64K"),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__version__ = "1.0.0"

__all__ = [
    "GPUConfig",
    "baseline_config",
    "eight_chiplet_config",
    "ClapPolicy",
    "ClapSaPolicy",
    "ClapSaPlusPolicy",
    "ClapMigrationPolicy",
    "AllocationPhase",
    "PlacementPolicy",
    "StaticPaging",
    "IdealPolicy",
    "MgvmPolicy",
    "BarreChordPolicy",
    "GritPolicy",
    "CNumaPolicy",
    "SaStaticPolicy",
    "run_simulation",
    "run_workload",
    "SweepRunner",
    "SweepCell",
    "ResultCache",
    "OnError",
    "CellFailure",
    "ChaosSchedule",
    "FaultKind",
    "SimulationError",
    "InvariantViolation",
    "MemoryExhaustedError",
    "TraceFormatError",
    "PolicyMappingError",
    "SweepError",
    "ChaosError",
    "SimResult",
    "EnergyBreakdown",
    "EnergyParams",
    "energy_report",
    "validate_machine",
    "SUITE",
    "workload_by_name",
    "gemm_reuse_scenario",
    "Workload",
    "WorkloadSpec",
    "KB",
    "MB",
    "GB",
    "PAGE_4K",
    "PAGE_64K",
    "PAGE_2M",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
