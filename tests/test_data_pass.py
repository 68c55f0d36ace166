"""The batched engine's per-chunk data pass against the staged stage.

``DataPass.data_pass`` serves a chunk's accesses after the chunk's
translation and faults; these tests pin that it leaves the same machine
state and costs as ``DataStage.process`` replaying the same accesses one
at a time, that an abort mid-chunk keeps true totals, and that a flush
in the middle of a chunk still follows every earlier access.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import FINE_INTERLEAVE, InterleavePolicy
from repro.config import baseline_config
from repro.errors import MemoryExhaustedError
from repro.mem.dram import ROW_SIZE
from repro.policies import StaticPaging
from repro.sim import engine as engine_module
from repro.sim.batch import CHUNK, DataPass
from repro.sim.engine import run_simulation
from repro.sim.machine import Machine
from repro.sim.pipeline import DataStage
from repro.units import BLOCK_SIZE, MB, PAGE_64K

from .conftest import make_spec, partitioned, shared
from .test_capacity_exhaustion import oversubscribed_spec

LINE = 128
NC = 4

#: A physical address in the first 128 KB of one of eight 2 MB blocks:
#: two blocks per chiplet, few enough lines for hits, evictions and
#: DRAM row hits.
paddr = st.builds(
    lambda block, offset: block * BLOCK_SIZE + offset,
    st.integers(0, 7),
    st.integers(0, 1024 * LINE - 1),
)

#: One access: requester and physical address.
access = st.tuples(st.integers(0, NC - 1), paddr)


def _machine_state(machine):
    """Everything the data path reads or writes, in comparable form."""
    dram = machine.dram
    ring = machine.ring
    state = {
        "l1": [(c.hits, c.misses, c._sets) for c in machine.l1_caches],
        "l2": [(c.hits, c.misses, c._sets) for c in machine.l2_caches],
        "open_row": list(dram._open_row.items()),
        "channel_accesses": dram.channel_accesses,
        "dram": (dram.accesses, dram.row_hits),
        "ring": (
            dict(ring.traffic_bytes), ring.total_bytes, ring.hop_bytes
        ),
    }
    if machine.remote_caches is not None:
        state["remote"] = [
            (
                rc.remote_lookups,
                rc.remote_hits,
                rc.cache.hits,
                rc.cache.misses,
                rc.cache._sets,
                list(getattr(rc, "_seen", ())),
            )
            for rc in machine.remote_caches
        ]
    return copy.deepcopy(state)


@pytest.mark.parametrize("remote_cache", [None, "NUBA", "SAC"])
@given(
    warmup=st.lists(access, max_size=600),
    rows=st.lists(paddr, max_size=40),
    chunk=st.lists(access, min_size=1, max_size=300),
    split=st.integers(0, 300),
)
@settings(max_examples=25, deadline=None)
def test_data_pass_matches_per_access_replay(
    remote_cache, warmup, rows, chunk, split
):
    machine = Machine(baseline_config(), remote_cache=remote_cache)
    layout = machine.layout
    # Pre-filled L1, L2 and remote sets and pre-opened DRAM rows, so the
    # chunk meets resident lines, full sets and open rows.
    for c, pa in warmup:
        home = layout.chiplet_of_paddr(pa)
        machine.l1_caches[c].access(pa)
        machine.l2_caches[home].access(pa)
        if remote_cache is not None and home != c:
            machine.remote_caches[c].access(pa)
    for pa in rows:
        machine.dram._open_row[layout.channel_of_paddr(pa)] = pa // ROW_SIZE
    staged = copy.deepcopy(machine)

    stage_state = SimpleNamespace(
        machine=staged, interleave=InterleavePolicy.NUMA_AWARE
    )
    stage = DataStage(stage_state, None)
    for c, pa in chunk:
        record = SimpleNamespace(
            paddr=pa, va_base=pa, chiplet=layout.chiplet_of_paddr(pa)
        )
        stage.process(c, pa, record)
    stage.finish()

    ch = np.array([c for c, _ in chunk], dtype=np.int64)
    pd = np.array([pa for _, pa in chunk], dtype=np.int64)
    hm = np.array(
        [layout.chiplet_of_paddr(pa) for _, pa in chunk], dtype=np.int64
    )
    data = DataPass(machine, None)
    # A chunk may be served in two calls (a mid-chunk flush does that);
    # the second picks up where the first stopped.
    k = min(split, len(chunk))
    for lo, hi in ((0, k), (k, len(chunk))):
        if hi > lo:
            data.data_pass(ch[lo:hi], pd[lo:hi], hm[lo:hi])
    assert data.flush_tallies() == (
        stage_state.data_cycles,
        stage_state.remote_on_ring,
    )
    assert _machine_state(machine) == _machine_state(staged)


def test_one_access_chunk_opens_a_row():
    machine = Machine(baseline_config())
    data = DataPass(machine, None)
    pa = 2 * BLOCK_SIZE + 5 * ROW_SIZE + 3 * FINE_INTERLEAVE
    assert machine.layout.chiplet_of_paddr(pa) == 2
    data.data_pass(np.array([1]), np.array([pa]), np.array([2]))
    channel = machine.layout.channel_of_paddr(pa)
    assert machine.dram._open_row == {channel: pa // ROW_SIZE}
    assert machine.dram.channel_accesses[channel] == 1
    cycles, on_ring = data.flush_tallies()
    assert on_ring == 1 and cycles > 0
    assert machine.l2_caches[2].misses == 1
    assert machine.dram.accesses == 1 and machine.dram.row_hits == 0


def _aborted_state(monkeypatch, engine):
    """The SimState of a capacity-exhausted run, as the abort left it."""
    captured = []
    create = engine_module.SimState.create

    def capture(*args, **kwargs):
        state = create(*args, **kwargs)
        captured.append(state)
        return state

    monkeypatch.setattr(engine_module.SimState, "create", capture)
    with pytest.raises(MemoryExhaustedError) as excinfo:
        run_simulation(
            oversubscribed_spec(),
            StaticPaging(PAGE_64K),
            capacity_blocks_per_chiplet=1,
            engine=engine,
        )
    (state,) = captured
    machine = state.machine
    return excinfo.value.context["access_index"], {
        "data_cycles": state.data_cycles,
        "remote_on_ring": state.remote_on_ring,
        "l1": [(c.hits, c.misses) for c in machine.l1_caches],
        "l2": [(c.hits, c.misses) for c in machine.l2_caches],
        "dram": (machine.dram.accesses, machine.dram.row_hits),
    }


def test_abort_mid_chunk_keeps_true_totals(monkeypatch):
    staged_at, staged = _aborted_state(monkeypatch, "staged")
    batched_at, batched = _aborted_state(monkeypatch, "batched")
    assert staged_at == batched_at
    # The failing access sits inside a chunk, past accesses of the same
    # chunk that the pass must still have served.
    assert batched_at % CHUNK > 0
    assert batched["data_cycles"] > 0
    assert batched == staged


class _PlaceMigrating(StaticPaging):
    """64KB static paging that, on every fourth fault, moves the page of
    the previous fault to the next chiplet: a data-cache flush from
    ``place``, in the middle of a chunk."""

    def __init__(self):
        super().__init__(PAGE_64K)
        self.faults = 0
        self.last = None

    def place(self, vaddr, requester, allocation):
        super().place(vaddr, requester, allocation)
        self.faults += 1
        if self.last is not None and self.faults % 4 == 0:
            last_vaddr, last_allocation = self.last
            record = self.machine.page_table.lookup(last_vaddr)
            self.migrate(
                last_vaddr,
                (record.chiplet + 1) % self.machine.num_chiplets,
                self.pool_for(last_allocation),
                free_of_cost=False,
            )
        self.last = (vaddr, allocation)


def test_flush_from_place_lands_after_every_earlier_access():
    spec = make_spec(
        partitioned(size=16 * MB, waves=2, lines_per_touch=4),
        shared(size=12 * MB, waves=2, lines_per_touch=4),
    )
    staged = run_simulation(spec, _PlaceMigrating(), engine="staged")
    batched = run_simulation(spec, _PlaceMigrating(), engine="batched")
    assert staged.migrations > 0
    assert batched == staged
    assert batched.to_dict() == staged.to_dict()
