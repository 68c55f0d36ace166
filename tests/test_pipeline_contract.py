"""Staged-pipeline equivalence and the formal policy contract.

Two guarantees of the AccessPipeline refactor:

* the staged engine reproduces the monolithic engine's results
  bit-for-bit — pinned against ``tests/data/golden_pipeline_results.json``,
  a recording of twelve diverse quick-sweep cells made with the
  pre-refactor single-loop ``run_simulation``;
* a policy that does not satisfy :class:`repro.policies.PolicyProtocol`
  fails fast at attach/validation time with a typed
  :class:`~repro.errors.PolicyContractError` naming every violation,
  instead of an ``AttributeError`` deep inside the per-access loop;
  and every policy class the package defines passes that validation,
  so none ships broken because no sweep happens to build it.

Two further engine gates live here: a twelve-cell *same-trace sweep
fixture* — cells replaying one trace, swept through the real
``SweepRunner`` under both engines, per-cell results and fingerprints
identical — and a lying policy that inherits static 64KB paging but
overrides ``place`` (outside the audit table) to map pages below that
granule: it must fault through the batched engine's exact per-access
path (the below-granule branch of the one-access window) and still
match the staged engine bit for bit, with consistent
``faults_dropped`` / ``fast_path_fraction`` / ``fault_batch_fraction``
accounting.  With telemetry on, the staged and batched engines must
also record the same snapshot on the golden cells and for the lying
policy.
"""

import importlib
import inspect
import json
import pkgutil
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from repro.arch.address import InterleavePolicy
from repro.core.clap import ClapPolicy
from repro.errors import PolicyContractError
from repro.gmmu.walker import PtePlacement
from repro.policies import (
    PlacementPolicy,
    PolicyCapabilities,
    PolicyProtocol,
    StaticPaging,
    validate_policy,
)
from repro.sim.engine import run_simulation
from repro.sim.errors import PolicyContractError as ReexportedError
from repro.sim.runner import run_workload
from repro.trace.suite import workload_by_name
from repro.trace.workload import Pattern, StructureSpec, Trace, WorkloadSpec
from repro.units import KB, MB, PAGE_4K, PAGE_64K
from repro.vm.va_space import VASpace

from .conftest import comparable_telemetry

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pipeline_results.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: The recorded cells: every policy family, plus the remote-cache and
#: naive-interleave paths.
GOLDEN_CELLS = [
    ("STE", "S-64KB", {}),
    ("STE", "S-2MB", {}),
    ("STE", "CLAP", {}),
    ("BLK", "CLAP", {}),
    ("GPT3", "Ideal_C-NUMA", {}),
    ("GPT3", "Ideal_C-NUMA+inter", {}),
    ("STE", "GRIT", {}),
    ("BLK", "MGvm", {}),
    ("GPT3", "Ideal", {}),
    ("STE", "F-Barre", {}),
    ("STE", "S-2MB", {"remote_cache": "NUBA"}),
    ("BLK", "S-64KB", {"interleave": InterleavePolicy.NAIVE}),
]


def _golden_key(workload, policy, kwargs):
    return f"{workload}|{policy}|" + ",".join(
        f"{k}={v}" for k, v in sorted(kwargs.items())
    )


@pytest.mark.parametrize(
    "workload, policy, kwargs",
    GOLDEN_CELLS,
    ids=[_golden_key(*cell) for cell in GOLDEN_CELLS],
)
def test_pipeline_matches_pre_refactor_engine(workload, policy, kwargs):
    """The staged pipeline is bit-identical to the monolithic loop."""
    golden = GOLDEN[_golden_key(workload, policy, kwargs)]
    result = run_workload(workload, policy, **kwargs).to_dict()
    # ``telemetry`` postdates the recording and defaults to None/off.
    assert result.pop("telemetry", None) is None
    assert set(result) == set(golden)
    for field_name in sorted(golden):
        assert result[field_name] == golden[field_name], (
            f"{workload}/{policy}: field {field_name!r} diverged from the "
            f"pre-refactor engine"
        )


@pytest.mark.parametrize(
    "workload, policy, kwargs",
    GOLDEN_CELLS,
    ids=[_golden_key(*cell) for cell in GOLDEN_CELLS],
)
def test_batched_engine_matches_golden(workload, policy, kwargs):
    """The batched engine reproduces the same recordings bit-for-bit.

    Together with ``test_pipeline_matches_pre_refactor_engine`` this
    pins monolithic == staged == batched on all twelve golden cells.
    """
    golden = GOLDEN[_golden_key(workload, policy, kwargs)]
    result = run_workload(
        workload, policy, engine="batched", **kwargs
    ).to_dict()
    assert result.pop("telemetry", None) is None
    assert set(result) == set(golden)
    for field_name in sorted(golden):
        assert result[field_name] == golden[field_name], (
            f"{workload}/{policy}: field {field_name!r} diverged between "
            f"the batched engine and the golden recording"
        )


@pytest.mark.parametrize(
    "workload, policy, kwargs",
    GOLDEN_CELLS,
    ids=[_golden_key(*cell) for cell in GOLDEN_CELLS],
)
def test_batched_telemetry_matches_staged(workload, policy, kwargs):
    """Both engines record the same telemetry snapshot on every golden
    cell, bar the host wall-clock in ``place_latency_us``; telemetry no
    longer pins the run to the staged pipeline."""
    staged = run_workload(
        workload, policy, engine="staged", telemetry=True, **kwargs
    )
    batched = run_workload(
        workload, policy, engine="batched", telemetry=True, **kwargs
    )
    assert batched.fast_path_fraction is not None
    assert comparable_telemetry(batched.telemetry) == (
        comparable_telemetry(staged.telemetry)
    )


def test_fast_path_fraction_reported_on_fault_light_cells():
    """Batched runs report how much of the trace went vectorized.

    The quick-sweep cells fault on well under a fifth of their
    accesses, so the steady-state windows must carry > 0.8 of the
    replay; the staged engine reports None (no fast path exists).
    """
    for workload, policy in [
        ("STE", "S-64KB"), ("BLK", "CLAP"), ("GPT3", "Ideal_C-NUMA"),
    ]:
        result = run_workload(workload, policy, engine="batched")
        assert result.fast_path_fraction is not None
        assert result.fast_path_fraction > 0.8, (workload, policy)
        # Computed-how metadata stays out of the result-cache payload
        # and out of equality: staged and batched results stay equal.
        assert "fast_path_fraction" not in result.to_dict()
    staged = run_workload("STE", "S-64KB", engine="staged")
    assert staged.fast_path_fraction is None


# --- the policy contract ---


class _HookLessPolicy:
    """Duck-typed almost-policy: flags fine, several hooks missing."""

    name = "hookless"
    coalescing = False
    pattern_coalescing = False
    ideal_translation = False
    pte_placement = PtePlacement.DISTRIBUTED
    wants_page_stats = False
    num_epochs = 10

    def attach(self, machine, workload):
        pass

    def place(self, vaddr, requester, allocation):
        pass

    # on_epoch, on_kernel, selection_report, native_sizes missing


class _MistypedPolicy(PlacementPolicy):
    """Subclass that clobbered capability flags with the wrong types."""

    name = "mistyped"
    coalescing: ClassVar[int] = 1  # not a bool
    num_epochs: ClassVar[bool] = True  # bool is not an epoch count
    pte_placement = "local"  # not a PtePlacement

    def place(self, vaddr, requester, allocation):
        pass


def test_missing_hooks_fail_fast_with_typed_error():
    with pytest.raises(PolicyContractError) as excinfo:
        validate_policy(_HookLessPolicy())
    assert isinstance(excinfo.value, TypeError)
    context = excinfo.value.context
    assert context["policy_class"] == "_HookLessPolicy"
    assert sorted(context["missing_hooks"]) == [
        "native_sizes", "on_epoch", "on_kernel", "selection_report",
    ]
    assert context["bad_flags"] == {}


def test_mistyped_flags_are_all_reported_at_once():
    with pytest.raises(PolicyContractError) as excinfo:
        validate_policy(_MistypedPolicy())
    bad = excinfo.value.context["bad_flags"]
    assert set(bad) == {"coalescing", "num_epochs", "pte_placement"}
    assert "bool" in bad["num_epochs"]


def test_engine_rejects_broken_policy_before_simulating():
    """run_simulation validates at attach, before any machine state."""
    spec = workload_by_name("STE")
    with pytest.raises(PolicyContractError):
        run_simulation(spec, _HookLessPolicy())


def test_attach_validates_subclasses():
    machine = object()  # never reached: validation fires first
    with pytest.raises(PolicyContractError):
        _MistypedPolicy().attach(machine, object())


def test_validate_policy_snapshots_capabilities():
    caps = validate_policy(ClapPolicy())
    assert isinstance(caps, PolicyCapabilities)
    assert caps.name == "CLAP"
    assert caps.coalescing is True
    assert caps.pattern_coalescing is False
    assert caps.pte_placement is PtePlacement.DISTRIBUTED
    assert caps.num_epochs >= 1
    # The snapshot is frozen: the hot path can never observe mutation.
    with pytest.raises(AttributeError):
        caps.coalescing = False


def test_placement_policy_satisfies_protocol():
    assert isinstance(StaticPaging(PAGE_64K), PolicyProtocol)
    assert ReexportedError is PolicyContractError


def test_num_epochs_must_be_positive():
    class _ZeroEpochs(StaticPaging):
        num_epochs: ClassVar[int] = 0

    with pytest.raises(PolicyContractError) as excinfo:
        validate_policy(_ZeroEpochs(PAGE_64K))
    assert excinfo.value.context["num_epochs"] == 0


def _package_policy_classes():
    """Every policy class the package defines: each ``PlacementPolicy``
    subclass under ``repro``, and each class named ``*Policy`` in a
    ``repro.policies`` module, whatever its bases."""
    import repro

    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls is PlacementPolicy:
                continue
            home = cls.__module__
            named = cls.__name__.endswith("Policy") and home.startswith(
                "repro.policies."
            )
            if home.startswith("repro.") and (
                named or issubclass(cls, PlacementPolicy)
            ):
                found[f"{home}.{cls.__qualname__}"] = cls
    return [found[key] for key in sorted(found)]


def test_every_policy_class_in_the_package_satisfies_the_contract():
    """Attach-time validation, run on each policy class the package
    defines, including one no experiment or test sweeps yet.  Abstract
    classes are not skipped: one that never defined ``place`` fails to
    build."""
    from repro.experiments.sec26_interleaving import _RoundRobinPaging

    classes = _package_policy_classes()
    assert {StaticPaging, ClapPolicy, _RoundRobinPaging} <= set(classes)
    for cls in classes:
        required = [
            param
            for param in inspect.signature(cls).parameters.values()
            if param.default is param.empty
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        ]
        validate_policy(cls(PAGE_64K) if required else cls())


# --- epoch flushing (the partial-tail satellite) ---


class _EpochSpy(StaticPaging):
    """Counts every ``on_epoch`` delivery, including the closing flush."""

    num_epochs: ClassVar[int] = 5

    def __init__(self):
        super().__init__(PAGE_64K)
        self.epochs = []

    def on_epoch(self, epoch, page_stats, epoch_remote_ratio):
        self.epochs.append(epoch)


def test_final_partial_epoch_is_flushed():
    policy = _EpochSpy()
    result = run_workload("STE", policy)
    n = result.n_accesses
    epoch_len = max(1, n // policy.num_epochs)
    # The quick STE trace length is not a multiple of the epoch length,
    # so this exercises the closing flush — guard that premise.
    assert n % epoch_len != 0
    expected = n // epoch_len + 1
    assert policy.epochs == list(range(expected))


# --- multi-cell same-trace sweep ---
#
# Twelve sweep cells all replaying the quick STE trace under seed 7 —
# every policy family plus the remote-cache and naive-interleave paths.
# The sweep is run once per engine through the real ``SweepRunner``
# (serial, cache off); per-cell results and cell fingerprints must be
# identical across engines.

SAME_TRACE_CELLS = [
    ("S-4KB", {}),
    ("S-64KB", {}),
    ("S-2MB", {}),
    ("CLAP", {}),
    ("Ideal", {}),
    ("MGvm", {}),
    ("F-Barre", {}),
    ("GRIT", {}),
    ("Ideal_C-NUMA", {}),
    ("Ideal_C-NUMA+inter", {}),
    ("S-2MB", {"remote_cache": "NUBA"}),
    ("S-64KB", {"interleave": InterleavePolicy.NAIVE}),
]


def _same_trace_cells():
    from repro.sim.parallel import SweepCell

    return [
        SweepCell("STE", policy, seed=7, **kwargs)
        for policy, kwargs in SAME_TRACE_CELLS
    ]


def _sweep_under_engine(engine):
    from repro.sim.parallel import SweepRunner, cell_fingerprint

    mp = pytest.MonkeyPatch()
    try:
        mp.setenv("REPRO_ENGINE", engine)
        mp.delenv("REPRO_TELEMETRY", raising=False)
        cells = _same_trace_cells()
        fingerprints = [cell_fingerprint(cell) for cell in cells]
        runner = SweepRunner(jobs=1, use_cache=False)
        results = runner.run_cells(cells)
        assert all(result is not None for result in results)
        return {
            "dicts": [result.to_dict() for result in results],
            "faults_dropped": [r.faults_dropped for r in results],
            "fingerprints": fingerprints,
            "simulated": runner.stats.simulated,
        }
    finally:
        mp.undo()


@pytest.fixture(scope="module")
def same_trace_sweeps():
    return {
        engine: _sweep_under_engine(engine)
        for engine in ("staged", "batched")
    }


@pytest.mark.parametrize("engine", ["staged", "batched"])
def test_same_trace_sweep_simulates_every_cell(same_trace_sweeps, engine):
    """No cell is skipped, deduplicated away, or silently dropped —
    all twelve simulate under both engines."""
    assert same_trace_sweeps[engine]["simulated"] == len(SAME_TRACE_CELLS)
    assert len(same_trace_sweeps[engine]["dicts"]) == len(SAME_TRACE_CELLS)


def test_same_trace_sweep_bit_identical_to_staged(same_trace_sweeps):
    staged = same_trace_sweeps["staged"]
    batched = same_trace_sweeps["batched"]
    assert batched["fingerprints"] == staged["fingerprints"]
    assert batched["faults_dropped"] == staged["faults_dropped"]
    for index, (policy, kwargs) in enumerate(SAME_TRACE_CELLS):
        assert batched["dicts"][index] == staged["dicts"][index], (
            f"cell {index} ({policy}, {kwargs}) diverged between the "
            f"batched sweep and the staged sweep"
        )


# --- bulk fault path: accounting and the unaudited-place gate ---


class _LyingPolicy(StaticPaging):
    """Inherits 64KB static paging but maps 4KB pages.

    Its ``place`` override is not in ``batch.AUDITED_PLACE``, so the
    batched engine never bulk-resolves its faults: each one goes
    through the staged fault stage, and every access to a page mapped
    below the 64KB granule replays through the exact per-access path.
    """

    def __init__(self):
        super().__init__(PAGE_64K)
        self.name = "lying-64K"

    def place(self, vaddr, requester, allocation):
        self.machine.pager.map_single(
            vaddr,
            PAGE_4K,
            requester,
            allocation.alloc_id,
            self.pool_for(allocation),
        )


def test_fault_batch_fraction_reported_on_batchable_cells():
    """Audited policies report their batch coverage; the staged engine
    and non-eligible policies report None; and like
    ``fast_path_fraction`` the metric never enters the cache payload."""
    batched = run_workload("STE", "S-64KB", engine="batched")
    assert batched.fault_batch_fraction == 1.0
    assert "fault_batch_fraction" not in batched.to_dict()
    staged = run_workload("STE", "S-64KB", engine="staged")
    assert staged.fault_batch_fraction is None
    # CLAP coalesces translations: ineligible by the capability gate.
    clap = run_workload("STE", "CLAP", engine="batched")
    assert clap.fault_batch_fraction is None
    # Reservation sizes batch every fault but the one that fills (and
    # promotes) each region: STE fills all its regions, so the fraction
    # is exactly 1 - 1/(64KB sub-pages per region).
    s2m = run_workload("STE", "S-2MB", engine="batched")
    assert s2m.fault_batch_fraction == 31 / 32
    s128k = run_workload("STE", "S-128KB", engine="batched")
    assert s128k.fault_batch_fraction == 1 / 2


class _OneEpochPaging(StaticPaging):
    """Static paging with a single epoch, so a short trace is one chunk."""

    num_epochs: ClassVar[int] = 1


def _promotion_boundary_trace():
    """A 256KB-paging trace whose hoisted faults and region-filling
    faults are separated by re-accesses of the already-mapped pages.

    Region 0 holds 64KB pages 0-3 and region 1 pages 4-7.  Pages 0-2 and
    4-6 are first touched (and so bulk-mapped) ahead of pages 3 and 7,
    whose faults fill, and promote, their regions; every page mapped so
    far is re-read between those faults and after them.
    """
    spec = WorkloadSpec(
        abbr="PROM",
        title="promotion boundary",
        structures=(
            StructureSpec("a", 2 * MB, 2 * MB, Pattern.PARTITIONED),
        ),
        tb_count=4,
    )
    allocation = VASpace().allocate("a", 2 * MB)
    chiplets, vaddrs = [], []

    def touch(page, chiplet, lines=1):
        for k in range(lines):
            chiplets.append(chiplet)
            vaddrs.append(allocation.base + page * PAGE_64K + k * 128)

    def reread(pages):
        for i, page in enumerate(pages):
            touch(page, (page + i) % 4, lines=8)

    touch(0, 0)
    touch(1, 1)
    reread([0, 1])
    touch(4, 2)
    touch(2, 3)
    reread([0, 1, 2, 4])
    touch(3, 0)  # fills region 0
    reread([0, 1, 2, 3, 4])
    touch(5, 1)
    touch(6, 2)
    reread([4, 5, 6, 0])
    touch(7, 3)  # fills region 1
    reread(range(8))
    n = len(vaddrs)
    trace = Trace(
        chiplets=np.array(chiplets, dtype=np.int8),
        vaddrs=np.array(vaddrs, dtype=np.int64),
        alloc_ids=np.full(n, allocation.alloc_id, dtype=np.int16),
        kernel_starts=[0],
        n_warp_instructions=n,
    )
    return spec, trace


def test_region_filling_fault_promotes_at_its_own_position():
    """The bulk path maps a region's sub-pages ahead of time but leaves
    the fault that fills the region, and so promotes it, at its own
    trace position: re-reads before it translate through the 64KB PTEs,
    re-reads after it through the promoted page, as in the staged run."""
    spec, trace = _promotion_boundary_trace()
    runs = {}
    for engine in ("staged", "batched"):
        policy = _OneEpochPaging(256 * KB)
        result = run_simulation(spec, policy, trace=trace, engine=engine)
        runs[engine] = (result, policy.machine.page_table.promotions)
    (staged, staged_promotions), (batched, promotions) = (
        runs["staged"], runs["batched"]
    )
    assert batched == staged
    assert batched.to_dict() == staged.to_dict()
    assert promotions == staged_promotions == 2
    # Six faults were hoisted; the two region-filling ones were not.
    assert batched.page_faults == 8
    assert batched.fault_batch_fraction == 6 / 8


def test_lying_policy_keeps_results_and_accounting_consistent():
    """An unaudited ``place`` faults through the scalar path, bit-identically.

    The lying policy inherits a 64KB granule but maps 4KB pages below
    it.  Its ``place`` is not audited, so no
    fault is bulk-resolved: every fault, and every access to a 4KB
    page, replays through the one-access window's staged fault lookup.
    The result must match the staged engine field for field —
    including ``faults_dropped`` — and both *how-computed* fractions
    must stay well-formed and outside the cache payload.
    """
    spec = workload_by_name("STE")
    staged = run_simulation(spec, _LyingPolicy(), engine="staged")
    batched = run_simulation(spec, _LyingPolicy(), engine="batched")
    assert staged == batched
    assert staged.to_dict() == batched.to_dict()
    assert batched.faults_dropped == staged.faults_dropped
    # Not bulk_proven: no fault batching, so no fraction to report.
    assert batched.fault_batch_fraction is None
    assert staged.fault_batch_fraction is None
    assert batched.fast_path_fraction is not None
    assert 0.0 <= batched.fast_path_fraction <= 1.0
    assert "fault_batch_fraction" not in batched.to_dict()
    assert "fast_path_fraction" not in batched.to_dict()


def test_lying_policy_keeps_telemetry_identical():
    """Faults fired through the batched engine's scalar path are each
    reported once, as in the staged run."""
    spec = workload_by_name("STE")
    staged = run_simulation(
        spec, _LyingPolicy(), engine="staged", telemetry=True
    )
    batched = run_simulation(
        spec, _LyingPolicy(), engine="batched", telemetry=True
    )
    assert batched.fault_batch_fraction is None
    # The snapshots time the host (place latencies), so compare the
    # payload without them here and the snapshots below.
    assert {**batched.to_dict(), "telemetry": None} == (
        {**staged.to_dict(), "telemetry": None}
    )
    assert batched.faults_dropped == staged.faults_dropped
    assert comparable_telemetry(batched.telemetry) == (
        comparable_telemetry(staged.telemetry)
    )
