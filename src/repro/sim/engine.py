"""The trace-driven simulation driver.

``run_simulation`` wires one run together: it validates the policy
against the formal contract (:mod:`repro.policies.contract`), builds the
:class:`~repro.sim.machine.Machine` and binds the workload, replays the
trace through one of two bit-identical engines — the staged
:class:`~repro.sim.pipeline.AccessPipeline` (fault → translation →
data → accounting, per Figure 3) or the vectorized
:class:`~repro.sim.batch.BatchedPipeline` (the default) — and folds the
accumulated :class:`~repro.sim.pipeline.SimState` into a
:class:`~repro.sim.results.SimResult` under the analytic timing model.

The per-access mechanics live in :mod:`repro.sim.pipeline`; telemetry
collection (``--telemetry`` / ``REPRO_TELEMETRY``) in
:mod:`repro.sim.telemetry`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..arch.address import InterleavePolicy
from ..config import GPUConfig, baseline_config
from ..policies.contract import validate_policy
from ..trace.workload import Trace, Workload, WorkloadSpec
from .batch import BatchedPipeline
from .energy import energy_report
from .machine import Machine
from .pipeline import AccessPipeline, SimState
from .results import SimResult
from .runner import ENGINES, resolve_engine  # noqa: F401  (re-exported)
from .telemetry import (
    Instrumentation,
    TelemetryCollector,
    resolve_instrumentation,
)
from .timing import TimingParams, total_cycles


def run_simulation(
    workload: Union[WorkloadSpec, Workload],
    policy,
    config: Optional[GPUConfig] = None,
    *,
    interleave: InterleavePolicy = InterleavePolicy.NUMA_AWARE,
    remote_cache: Optional[str] = None,
    seed: int = 7,
    timing: Optional[TimingParams] = None,
    trace: Optional[Trace] = None,
    capacity_blocks_per_chiplet: Optional[int] = None,
    host_eviction: bool = False,
    multi_page_tlb: bool = False,
    instrumentation: Optional[Instrumentation] = None,
    telemetry: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimResult:
    """Run ``policy`` on ``workload`` and return the measured result.

    ``workload`` may be a spec (a fresh machine-bound instance is built)
    or an already-bound :class:`Workload` created against this machine's
    VA space (advanced use; must match ``config.num_chiplets``).

    ``capacity_blocks_per_chiplet`` bounds GPU memory (oversubscription
    studies); with ``host_eviction`` the pager evicts least-recently-
    mapped blocks to host memory instead of failing, and refaults pay a
    host-transfer penalty (Section 4.7).

    ``instrumentation`` attaches an explicit observability hook;
    ``telemetry=True`` (or ``REPRO_TELEMETRY=1`` when left as None)
    records the standard per-stage telemetry into
    ``SimResult.telemetry``.  Telemetry never affects simulated results
    or which engine runs.

    ``engine`` selects the replay machinery: ``"staged"`` (the
    per-access pipeline) or ``"batched"`` (vectorized steady-state
    windows, see :mod:`repro.sim.batch`); None defers to
    ``REPRO_ENGINE``, else batched.  Both produce bit-identical
    results.  Multi-page-TLB runs, and runs with a custom
    ``instrumentation`` (anything but the built-in
    :class:`~repro.sim.telemetry.TelemetryCollector`, which the batched
    engine fills from aggregate counts), need the staged pipeline:
    ``engine="batched"`` rejects them with a ``ValueError``, and an
    unset ``engine`` runs them staged whatever ``REPRO_ENGINE`` says.
    """
    hook = resolve_instrumentation(instrumentation, telemetry)
    choice = resolve_engine(engine)
    # A custom Instrumentation expects one call per access, which only
    # the staged pipeline makes; batched replay also assumes single-size
    # TLB reach per unit.
    staged_only = None
    if multi_page_tlb:
        staged_only = "multi_page_tlb=True"
    elif hook is not None and type(hook) is not TelemetryCollector:
        staged_only = f"a custom Instrumentation ({type(hook).__name__})"
    if staged_only and choice == "batched":
        if engine is not None:
            raise ValueError(
                f"engine='batched' cannot replay a run with {staged_only}, "
                "which needs the staged pipeline's per-access steps; pass "
                "engine='staged' or leave engine unset"
            )
        choice = "staged"
    if timing is None:
        timing = TimingParams()
    capabilities = validate_policy(policy)
    if config is None:
        config = baseline_config()
    machine = Machine(
        config,
        interleave=interleave,
        remote_cache=remote_cache,
        pte_placement=capabilities.pte_placement,
        capacity_blocks_per_chiplet=capacity_blocks_per_chiplet,
        multi_page_tlb=multi_page_tlb,
    )
    if host_eviction:
        machine.pager.enable_host_eviction()
    if isinstance(workload, WorkloadSpec):
        workload = Workload(
            workload, config.num_chiplets, va_space=machine.va_space, seed=seed
        )
    elif workload.va_space is not machine.va_space:
        raise ValueError(
            "a pre-bound Workload must share the machine's VA space; "
            "pass the WorkloadSpec instead"
        )
    external_trace = trace is not None
    if trace is None:
        trace = workload.build_trace(seed)
    policy.attach(machine, workload)

    state = SimState.create(
        machine, workload, policy, capabilities, trace, interleave
    )
    if choice == "batched":
        pipeline = BatchedPipeline(state, telemetry=hook)
    else:
        pipeline = AccessPipeline(state, hook)
    pipeline.run()
    result = _fold_result(state, pipeline, timing)
    # Where the trace came from is computed-how metadata (the sweep
    # runner counts store attaches off it); None when we built it here.
    if external_trace:
        result.trace_source = trace.source
    return result


def _fold_result(
    state: SimState,
    pipeline: Union[AccessPipeline, BatchedPipeline],
    timing: TimingParams,
) -> SimResult:
    """Assemble the :class:`SimResult` from the pipeline's final state."""
    machine = state.machine
    workload = state.workload
    eviction = machine.pager.eviction
    counters = state.fold_counters()
    cycles = total_cycles(counters, machine.ring, timing)

    coverage = None
    if machine.remote_caches is not None:
        lookups = sum(rc.remote_lookups for rc in machine.remote_caches)
        hits = sum(rc.remote_hits for rc in machine.remote_caches)
        coverage = hits / lookups if lookups else 0.0

    name_by_id = {
        a.alloc_id: name for name, a in workload.allocations.items()
    }
    telemetry_data = None
    if pipeline.telemetry is not None:
        telemetry_data = pipeline.telemetry.snapshot()
    return SimResult(
        workload=workload.spec.abbr,
        policy=state.capabilities.name,
        cycles=cycles,
        n_accesses=counters.n_accesses,
        n_warp_instructions=state.trace.n_warp_instructions,
        remote_accesses=state.remote_placement,
        translation_cycles=state.translation_cycles,
        data_cycles=state.data_cycles,
        l2_misses=machine.l2_misses,
        l2_tlb_misses=machine.l2_tlb_misses,
        page_faults=state.faults,
        migrations=(
            machine.pager.migration.pages_migrated
            + machine.pager.migration.pages_migrated_free
        ),
        host_refaults=(
            eviction.stats.host_refaults if eviction is not None else 0
        ),
        faults_dropped=sum(fb.dropped for fb in machine.fault_buffers),
        energy=energy_report(machine),
        blocks_consumed=machine.allocator.blocks_consumed,
        selections=state.policy.selection_report(),
        per_structure_remote={
            name_by_id[aid]: tuple(v)
            for aid, v in state.per_structure.items()
        },
        remote_cache_coverage=coverage,
        telemetry=telemetry_data,
        fast_path_fraction=getattr(pipeline, "fast_path_fraction", None),
        fault_batch_fraction=getattr(
            pipeline, "fault_batch_fraction", None
        ),
    )
