"""Sweep counters are a fold over per-cell records, in every mode.

Serial, pool, coordinator and surrogate runs record each cell event
(``queued``, ``start``, ``done``, ``error``, ``failed``, ``hit``, …) in
``SweepRunner.records``; ``SweepRunner.stats`` must equal
``SweepStats.fold(runner.records)`` after every ``run_cells`` — on clean
runs, under injected chaos and after a ``SweepError`` abort — and
``retries`` must count the ``start`` records past attempt 1 whichever
mode ran the cells.
"""

import pytest

from repro.errors import SweepError
from repro.policies import StaticPaging
from repro.sim.chaos import ChaosSchedule, FaultKind
from repro.sim.coordinator import CoordinatorConfig
from repro.sim.durability import corrupt_file
from repro.sim.parallel import (
    ResultCache,
    SweepCell,
    SweepRunner,
    SweepStats,
    cell_fingerprint,
)
from repro.surrogate import SurrogateConfig
from repro.units import MB, PAGE_2M, PAGE_64K

from .conftest import make_spec, partitioned

pytestmark = pytest.mark.filterwarnings(
    "ignore::ResourceWarning", "ignore::RuntimeWarning"
)

MODES = ["serial", "pool", "coordinator", "surrogate"]


def cells():
    """Twelve distinct cells tagged c00..c11, plus a duplicate of c00."""
    grid = [
        SweepCell(
            make_spec(
                partitioned(size=4 * MB, waves=1, lines_per_touch=2),
                abbr=f"A{w}",
            ),
            StaticPaging(size),
            seed=w,
            tag=f"c{3 * w + s:02d}",
        )
        for w in range(4)
        for s, size in enumerate((PAGE_64K, 4 * PAGE_64K, PAGE_2M))
    ]
    return grid + [grid[0]]


def make_runner(mode, tmp_path, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("telemetry", False)
    if mode == "coordinator":
        kwargs["coordinator"] = CoordinatorConfig(runners=2, lease_ttl=0.5)
    if mode == "surrogate":
        kwargs["surrogate"] = SurrogateConfig(
            budget=5, min_grid=4, min_seed=1, rounds=2
        )
    jobs = 1 if mode == "serial" else 2
    return SweepRunner(jobs=jobs, cache_dir=tmp_path / "cache", **kwargs)


def chaos_for(mode):
    plan = {
        "c01": (FaultKind.RAISE,),
        "c03": (FaultKind.DIE,),
        "c05": (FaultKind.DIE,),
        "c07": (FaultKind.CORRUPT_WRITE,),
        "c09": (FaultKind.RAISE, FaultKind.DIE),
    }
    return ChaosSchedule(plan)


def assert_folded(runner):
    folded = SweepStats.fold(runner.records)
    assert runner.stats == folded
    assert runner.stats.failures == folded.failures
    assert runner.stats.retries == sum(
        1 for r in runner.records
        if r["kind"] == "start" and r["attempt"] > 1
    )


def test_a_new_batch_restarts_the_attempt_count():
    """``starts`` holds the attempt a cell last started, and a new
    batch's ``queued`` record starts the cell's count over."""
    batch = [
        {"kind": "queued", "fp": "a"},
        {"kind": "start", "fp": "a", "attempt": 1},
        {"kind": "error", "fp": "a", "attempt": 1},
        {"kind": "start", "fp": "a", "attempt": 2},
        {"kind": "done", "fp": "a", "attempt": 2},
    ]
    stats = SweepStats.fold(batch)
    assert stats.retries == 1 and stats.starts == {"a": 2}
    stats.apply(batch[0])
    assert stats.starts == {} and "a" not in stats.settled
    for record in batch[1:]:
        stats.apply(record)
    assert stats.retries == 2 and stats.simulated == 2


@pytest.mark.parametrize("mode", MODES)
class TestStatsAreTheFold:
    def test_clean_run(self, mode, tmp_path):
        runner = make_runner(mode, tmp_path)
        results = runner.run_cells(cells())
        assert all(result is not None for result in results)
        assert_folded(runner)
        stats = runner.stats
        assert stats.cells == 13 and stats.deduped == 1
        assert stats.retries == 0 and stats.failures == []
        if mode == "surrogate":
            assert stats.cells_predicted > 0
            assert stats.simulated + stats.cells_predicted == 12
        else:
            assert stats.simulated == 12
        # A second pass over the same cells is answered by the cache.
        runner.run_cells(cells())
        assert_folded(runner)
        assert runner.stats.cells == 26

    def test_chaos(self, mode, tmp_path):
        runner = make_runner(
            mode, tmp_path, on_error="retry", max_attempts=3,
            chaos=chaos_for(mode),
        )
        results = runner.run_cells(cells())
        assert all(result is not None for result in results)
        assert_folded(runner)
        # c01, c03 and c05 cost one retry each and c09 two; a worker's
        # death costs only the attempt it held.
        if mode in ("serial", "pool"):
            assert runner.stats.retries == 5
            # The damaged entry is found by the next read, not this run.
            assert runner.stats.entries_quarantined == 0
        elif mode == "coordinator":
            # Every process reads each ``done`` back from the cache, so
            # c07's corrupt entry is quarantined and recomputed now.
            assert runner.stats.retries == 6
            assert runner.stats.entries_quarantined == 1
            fps = {cell.tag: cell_fingerprint(cell) for cell in cells()}
            for tag, attempt in (("c03", 1), ("c05", 1), ("c09", 2)):
                error = next(
                    r for r in runner.records if r["kind"] == "error"
                    and r["fp"] == fps[tag] and r["attempt"] == attempt
                )
                assert error["fail_kind"] == "worker-died"
            assert not any(r["kind"] == "steal" for r in runner.records)

    def test_abort(self, mode, tmp_path):
        chaos = ChaosSchedule(
            {f"c{i:02d}": (FaultKind.RAISE,) for i in range(12)}
        )
        runner = make_runner(mode, tmp_path, on_error="raise", chaos=chaos)
        with pytest.raises(SweepError):
            runner.run_cells(cells())
        assert_folded(runner)
        assert runner.stats.failed >= 1
        assert runner.stats.retries == 0



def test_a_surrogate_counts_the_corpus_entries_it_quarantines(tmp_path):
    """The surrogate reads its corpus by key, through the same cache read
    as every other mode, so a corrupt entry it moves aside is counted."""
    make_runner("serial", tmp_path).run_cells(cells())
    victim = ResultCache(tmp_path / "cache").path_for(
        cell_fingerprint(cells()[4])
    )
    assert corrupt_file(victim, salt="flip")  # one flipped bit
    runner = make_runner("surrogate", tmp_path)
    runner.run_cells(cells())
    assert_folded(runner)
    assert runner.stats.entries_quarantined == 1
    assert (tmp_path / "cache" / "corrupt" / victim.name).exists()
