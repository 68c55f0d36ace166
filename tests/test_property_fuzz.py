"""Property-based fuzzing of the VM layer against the invariant validator.

Hypothesis drives random-but-valid operation sequences (mappings,
reservations, releases, migrations) and random workload shapes through
the stack; after every sequence the machine-state validator must hold.
This is the class of test that catches frame double-allocation and
region bookkeeping bugs that example-based tests miss.

The second half is the *engine differential suite*: 135 generated cells
replayed through both engines (staged / batched), stratified across the
regimes where the vectorized windows and fault path could drift —
fault-heavy first-touch traces, oversubscription eviction,
migrating policies, multi-structure interleave, and capacity-exhaustion-
adjacent occupancy.  Every case asserts full ``SimResult`` bit-identity.
A telemetry differential follows: 22 cells recorded by the staged and
batched engines must yield equal telemetry snapshots.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import InterleavePolicy
from repro.config import baseline_config
from repro.core.clap import ClapPolicy
from repro.sim.engine import run_simulation
from repro.sim.machine import Machine
from repro.sim.validation import validate_machine
from repro.trace.workload import Pattern, StructureSpec, WorkloadSpec
from repro.units import MB, PAGE_2M, PAGE_64K, align_down

from .conftest import comparable_telemetry


# --- pager operation fuzzing -------------------------------------------

class _PagerDriver:
    """Applies abstract operations to a machine, tracking legality."""

    def __init__(self) -> None:
        self.machine = Machine(baseline_config())
        self.alloc = self.machine.va_space.allocate("fuzz", 16 * MB)
        self.pool = "fuzz"

    def apply(self, op) -> None:
        kind, page, chiplet = op
        pager = self.machine.pager
        vaddr = self.alloc.base + page * PAGE_64K
        record = self.machine.page_table.lookup(vaddr)
        if kind == "map":
            if record is None and self._region_of(vaddr) is None:
                pager.map_single(
                    vaddr, PAGE_64K, chiplet, self.alloc.alloc_id, self.pool
                )
        elif kind == "reserve_map":
            if record is None:
                base = align_down(vaddr, 256 * 1024)
                region = pager.region_at(base)
                if region is None:
                    try:
                        region = pager.ensure_region(
                            base, 256 * 1024, PAGE_64K, chiplet, self.pool
                        )
                    except ValueError:
                        return  # released region: individual mapping only
                pager.map_into_region(vaddr, region, self.alloc.alloc_id)
        elif kind == "release":
            base = align_down(vaddr, 256 * 1024)
            region = pager.region_at(base)
            if region is not None and not region.promoted:
                pager.release_region(region)
        elif kind == "migrate":
            if record is not None and record.page_size == PAGE_64K:
                if record.region is not None:
                    record.region.released = True
                pager.migrate_page(vaddr, chiplet, self.pool)

    def _region_of(self, vaddr):
        return self.machine.pager.region_at(align_down(vaddr, 256 * 1024))


_operation = st.tuples(
    st.sampled_from(["map", "reserve_map", "release", "migrate"]),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=3),
)


@given(ops=st.lists(_operation, min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_random_pager_sequences_preserve_invariants(ops):
    driver = _PagerDriver()
    for op in ops:
        driver.apply(op)
    validate_machine(driver.machine).raise_if_failed()


# --- end-to-end CLAP fuzzing -------------------------------------------

_pattern = st.sampled_from(
    [Pattern.PARTITIONED, Pattern.CONTIGUOUS, Pattern.SHARED]
)


@st.composite
def _random_spec(draw):
    structures = []
    for index in range(draw(st.integers(1, 3))):
        pattern = draw(_pattern)
        size_mb = draw(st.sampled_from([2, 4, 8, 12, 16]))
        group = draw(st.sampled_from([1, 2, 4, 8, 32]))
        noise = draw(st.sampled_from([0.0, 0.0, 0.1]))
        structures.append(
            StructureSpec(
                f"s{index}",
                size_mb * MB,
                size_mb * MB,
                pattern,
                group_pages=group,
                noise=noise if pattern is not Pattern.SHARED else 0.0,
                waves=2,
                lines_per_touch=4,
            )
        )
    return WorkloadSpec(
        abbr="FUZZ",
        title="random workload",
        structures=tuple(structures),
        tb_count=64,
        mem_fraction=0.3,
    )


@given(spec=_random_spec(), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_clap_on_random_workloads(spec, seed):
    """For any workload shape, CLAP must terminate with sane selections
    and a consistent machine."""
    result = run_simulation(spec, ClapPolicy(), seed=seed)
    for name, selection in result.selections.items():
        assert PAGE_64K <= selection.page_size <= PAGE_2M
        assert selection.page_size & (selection.page_size - 1) == 0
    assert 0.0 <= result.remote_ratio <= 1.0
    assert result.page_faults > 0


# --- engine differential equivalence (staged vs batched) --------------
#
# Every differential property below replays the same cell through both
# engines with a *fresh* policy instance per run and asserts full
# ``SimResult`` bit-identity: dataclass equality, the serialized cache
# payload (``to_dict``), and — explicitly, because the fault-buffer
# overflow path is the easiest counter to desynchronize — equal
# ``faults_dropped``.  The strategies are stratified to hit the regimes
# where the vectorized fault path (``sim/batch.py``) could drift from
# the staged ``FaultStage``: first-touch-dense traces, oversubscription
# eviction, migrating policies, multi-structure interleave, and
# capacity-exhaustion-adjacent occupancy.

ENGINE_PAIR = ("staged", "batched")

_any_policy = st.sampled_from(
    [
        "S-64KB", "S-2MB", "CLAP", "Ideal", "F-Barre",
        "GRIT", "MGvm", "Ideal_C-NUMA",
    ]
)

#: Policies whose ``place`` is in ``batch.AUDITED_PLACE``: these
#: exercise ``batch_faults`` itself, not just the eligibility gate.
#: S-128KB and S-2MB take its reservation branch; S-128KB regions hold
#: two pages, so every other first touch fills a region and stays on
#: the scalar path.
_batchable_policy = st.sampled_from(
    ["S-4KB", "S-64KB", "S-128KB", "S-2MB", "Ideal", "MGvm", "GRIT"]
)

#: Policies that migrate pages mid-run (between chunks / at epochs).
_migrating_policy = st.sampled_from(
    ["GRIT", "Ideal_C-NUMA", "Ideal_C-NUMA+inter"]
)


def _assert_engines_identical(run_one):
    """Run ``run_one(engine)`` for both engines; assert bit-identity.

    Returns the staged result so callers can pin extra regime
    assertions (e.g. the case actually faulted).
    """
    staged, batched = (run_one(engine) for engine in ENGINE_PAIR)
    assert batched == staged, "batched drifted from staged"
    assert batched.to_dict() == staged.to_dict()
    assert batched.faults_dropped == staged.faults_dropped
    return staged


@st.composite
def _fault_heavy_spec(draw):
    """First-touch-dominated traces: one wave, one line per touch, so
    nearly every granule page is reached through the fault path and the
    batched engine's ``batch_faults`` windows stay long."""
    structures = []
    for index in range(draw(st.integers(1, 2))):
        size_mb = draw(st.sampled_from([2, 4, 8]))
        structures.append(
            StructureSpec(
                f"f{index}",
                size_mb * MB,
                size_mb * MB,
                draw(_pattern),
                group_pages=draw(st.sampled_from([1, 2])),
                noise=0.0,
                waves=1,
                lines_per_touch=1,
            )
        )
    return WorkloadSpec(
        abbr="FHVY",
        title="fault-heavy fuzz",
        structures=tuple(structures),
        tb_count=32,
        mem_fraction=0.5,
    )


@st.composite
def _interleaved_spec(draw):
    """Three structures of mixed patterns sharing the VA space, so
    chunk windows interleave allocations (the regime where per-unique-
    page classification in the batched engine does real work)."""
    structures = []
    for index in range(3):
        size_mb = draw(st.sampled_from([2, 4, 6]))
        structures.append(
            StructureSpec(
                f"m{index}",
                size_mb * MB,
                size_mb * MB,
                draw(_pattern),
                group_pages=draw(st.sampled_from([1, 4, 32])),
                noise=draw(st.sampled_from([0.0, 0.1])),
                waves=2,
                lines_per_touch=2,
            )
        )
    return WorkloadSpec(
        abbr="MIXD",
        title="multi-structure interleave fuzz",
        structures=tuple(structures),
        tb_count=64,
        mem_fraction=0.4,
    )


@given(spec=_random_spec(), seed=st.integers(0, 50), policy=_any_policy)
@settings(max_examples=40, deadline=None)
def test_engines_bit_identical_on_random_workloads(spec, seed, policy):
    """For any workload shape, seed and policy family, the batched
    engine must produce the *same* ``SimResult`` as the staged
    pipeline — every counter, cycle total, selection and energy figure,
    as serialized by ``to_dict`` (the result-cache payload, which is
    also why the cache key may ignore the engine)."""
    from repro.sim.runner import run_workload

    _assert_engines_identical(
        lambda engine: run_workload(spec, policy, seed=seed, engine=engine)
    )


@given(
    spec=_fault_heavy_spec(),
    seed=st.integers(0, 50),
    policy=_batchable_policy,
)
@settings(max_examples=30, deadline=None)
def test_engines_bit_identical_on_fault_heavy_workloads(spec, seed, policy):
    """High first-touch density with fault-batching policies: the
    vectorized fault path resolves runs of consecutive faults and must
    still match the staged engine fault for fault."""
    from repro.sim.runner import run_workload

    staged = _assert_engines_identical(
        lambda engine: run_workload(spec, policy, seed=seed, engine=engine)
    )
    assert staged.page_faults > 0


@given(
    spec=_fault_heavy_spec(),
    seed=st.integers(0, 30),
    policy=_any_policy,
    cap=st.integers(1, 4),
)
@settings(max_examples=20, deadline=None)
def test_engines_bit_identical_under_oversubscription_eviction(
    spec, seed, policy, cap
):
    """Bounded GPU memory with host eviction: evictions, host refaults
    and dropped faults must stay engine-invariant (the batched engine
    must notice it is ineligible for fault batching and fall back)."""
    from repro.sim.runner import resolve_policy

    def run_one(engine):
        return run_simulation(
            spec,
            resolve_policy(policy),
            seed=seed,
            capacity_blocks_per_chiplet=cap,
            host_eviction=True,
            engine=engine,
        )

    _assert_engines_identical(run_one)


@given(
    spec=_random_spec(), seed=st.integers(0, 50), policy=_migrating_policy
)
@settings(max_examples=15, deadline=None)
def test_engines_bit_identical_under_migration_policies(spec, seed, policy):
    """Policies that migrate pages between chunks/epochs: migrations
    reshuffle ownership mid-run, and the engines must agree on every
    post-migration counter."""
    from repro.sim.runner import run_workload

    _assert_engines_identical(
        lambda engine: run_workload(spec, policy, seed=seed, engine=engine)
    )


@given(
    spec=_interleaved_spec(),
    seed=st.integers(0, 50),
    policy=_any_policy,
    interleave=st.sampled_from(
        [InterleavePolicy.NAIVE, InterleavePolicy.NUMA_AWARE]
    ),
)
@settings(max_examples=15, deadline=None)
def test_engines_bit_identical_on_multi_structure_interleave(
    spec, seed, policy, interleave
):
    """Three interleaved structures under both physical-address
    interleaving modes: chunk windows mixing allocations must classify
    identically in both engines."""
    from repro.sim.runner import resolve_policy

    def run_one(engine):
        return run_simulation(
            spec,
            resolve_policy(policy),
            seed=seed,
            interleave=interleave,
            engine=engine,
        )

    _assert_engines_identical(run_one)


@given(
    spec=_fault_heavy_spec(),
    seed=st.integers(0, 20),
    policy=_batchable_policy,
    cap=st.integers(1, 3),
)
@settings(max_examples=15, deadline=None)
def test_engines_agree_at_capacity_exhaustion_boundary(
    spec, seed, policy, cap
):
    """Occupancy adjacent to capacity exhaustion, *without* host
    eviction: whether a cell completes or dies must be engine-invariant,
    and when it dies both engines must report the identical enriched
    exhaustion context (same trace position, same fault count)."""
    from repro.errors import MemoryExhaustedError
    from repro.sim.runner import resolve_policy

    def run_one(engine):
        try:
            result = run_simulation(
                spec,
                resolve_policy(policy),
                seed=seed,
                capacity_blocks_per_chiplet=cap,
                engine=engine,
            )
            return ("completed", result)
        except MemoryExhaustedError as exc:
            return ("exhausted", dict(exc.context))

    (staged_kind, staged_value), (kind, value) = (
        run_one(engine) for engine in ENGINE_PAIR
    )
    assert kind == staged_kind, f"batched {kind} but staged {staged_kind}"
    if kind == "completed":
        assert value == staged_value
        assert value.to_dict() == staged_value.to_dict()
        assert value.faults_dropped == staged_value.faults_dropped
    else:
        assert value == staged_value


# --- telemetry differential: staged and batched snapshots agree -------
#
# With telemetry on, the batched engine fills the collector from run-
# level tallies instead of per-access hooks.  Its snapshot must equal
# the staged one in every regime where those tallies could drift, bar
# ``faults.place_latency_us`` buckets/mean, which time the host.


def _assert_telemetry_identical(run_one):
    """Run ``run_one(engine)`` (telemetry on) under both engines;
    returns the staged result."""
    staged = run_one("staged")
    batched = run_one("batched")
    assert batched.fast_path_fraction is not None
    assert comparable_telemetry(batched.telemetry) == (
        comparable_telemetry(staged.telemetry)
    )
    assert dataclasses.replace(batched, telemetry=None) == (
        dataclasses.replace(staged, telemetry=None)
    )
    return staged


@given(
    spec=_fault_heavy_spec(),
    seed=st.integers(0, 50),
    policy=_batchable_policy,
)
@settings(max_examples=6, deadline=None)
def test_telemetry_identical_on_the_bulk_fault_path(spec, seed, policy):
    from repro.sim.runner import run_workload

    staged = _assert_telemetry_identical(
        lambda engine: run_workload(
            spec, policy, seed=seed, engine=engine, telemetry=True
        )
    )
    assert staged.page_faults > 0


@given(
    spec=_interleaved_spec(),
    seed=st.integers(0, 50),
    policy=_any_policy,
    interleave=st.sampled_from(
        [InterleavePolicy.NAIVE, InterleavePolicy.NUMA_AWARE]
    ),
    remote_cache=st.sampled_from([None, "NUBA", "SAC"]),
)
@settings(max_examples=6, deadline=None)
def test_telemetry_identical_under_interleave_and_remote_caches(
    spec, seed, policy, interleave, remote_cache
):
    from repro.sim.runner import resolve_policy

    def run_one(engine):
        return run_simulation(
            spec,
            resolve_policy(policy),
            seed=seed,
            interleave=interleave,
            remote_cache=remote_cache,
            telemetry=True,
            engine=engine,
        )

    _assert_telemetry_identical(run_one)


@given(
    spec=_random_spec(), seed=st.integers(0, 50), policy=_migrating_policy
)
@settings(max_examples=5, deadline=None)
def test_telemetry_identical_under_epoch_policies(spec, seed, policy):
    from repro.sim.runner import run_workload

    staged = _assert_telemetry_identical(
        lambda engine: run_workload(
            spec, policy, seed=seed, engine=engine, telemetry=True
        )
    )
    assert staged.telemetry["locality_timeline"]


@given(
    spec=_fault_heavy_spec(),
    seed=st.integers(0, 30),
    policy=_any_policy,
    cap=st.integers(1, 4),
)
@settings(max_examples=5, deadline=None)
def test_telemetry_identical_under_oversubscription_eviction(
    spec, seed, policy, cap
):
    from repro.sim.runner import resolve_policy

    def run_one(engine):
        return run_simulation(
            spec,
            resolve_policy(policy),
            seed=seed,
            capacity_blocks_per_chiplet=cap,
            host_eviction=True,
            telemetry=True,
            engine=engine,
        )

    _assert_telemetry_identical(run_one)


# --- determinism (the invariant the result cache relies on) -----------

@given(spec=_random_spec(), seed=st.integers(0, 50))
@settings(max_examples=12, deadline=None)
def test_run_workload_deterministic_for_same_seed(spec, seed):
    """Two runs with identical inputs must be *equal in every field* —
    the content-addressed cache substitutes a stored result for a live
    simulation, which is only sound if reruns cannot differ."""
    from repro.policies import StaticPaging
    from repro.sim.runner import run_workload

    first = run_workload(spec, StaticPaging(PAGE_64K), seed=seed)
    second = run_workload(spec, StaticPaging(PAGE_64K), seed=seed)
    assert first == second
    assert first.to_dict() == second.to_dict()


@given(spec=_random_spec(), seed=st.integers(0, 50))
@settings(max_examples=8, deadline=None)
def test_clap_deterministic_for_same_seed(spec, seed):
    """The stateful adaptive policy must be just as replayable as the
    static ones (fresh instances, same seed, equal results)."""
    first = run_simulation(spec, ClapPolicy(), seed=seed)
    second = run_simulation(spec, ClapPolicy(), seed=seed)
    assert first == second


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_table4_selection_stable_across_seeds(seed):
    """The STE selection (the most size-sensitive Table 4 entry) must not
    depend on the trace seed."""
    from repro.trace.suite import workload_by_name

    result = run_simulation(
        workload_by_name("STE"), ClapPolicy(), seed=seed
    )
    assert result.selections["grid_in"].page_size == 256 * 1024
