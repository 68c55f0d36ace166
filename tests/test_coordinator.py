"""Crash-safe distributed sweeps (``repro.sim.coordinator``).

The coordinator's contract: shard a sweep across independent runner
processes with lease-based work stealing, journal every completion, and
make any interrupted run — including SIGKILL of the whole process group
— resumable to bit-identical final results.  The e2e tests here kill a
real coordinator sweep at deterministic completion counts and require
the resume to produce exactly what an uninterrupted run produces.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.sim.chaos import ChaosSchedule, FaultKind
from repro.sim import coordinator
from repro.sim.coordinator import (
    CoordinatorConfig,
    _acquire_lease,
    _lease_state,
    _release_lease,
    derive_sweep_id,
    load_cells,
)
from repro.sim.journal import Journal
from repro.sim.parallel import (
    ResultCache,
    SweepCell,
    SweepRunner,
    SweepStats,
    cell_fingerprint,
)
from repro.units import MB

from .conftest import make_spec, partitioned

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

#: Cells sized so one takes a few tens of milliseconds: slow enough to
#: SIGKILL a sweep mid-flight at a chosen completion count, fast enough
#: to keep the suite snappy.
CELL_COUNT = 24


def coord_cells(count=CELL_COUNT):
    return [
        SweepCell(
            make_spec(
                partitioned(size=16 * MB, waves=3, lines_per_touch=4),
                abbr=f"K{i:02d}",
            ),
            "S-64KB",
            seed=i,
            tag=f"c{i:02d}",
        )
        for i in range(count)
    ]


def coord_runner(cache_dir, **kwargs):
    config_kwargs = {
        "runners": kwargs.pop("runners", 2),
        "lease_ttl": kwargs.pop("lease_ttl", 5.0),
        "sweep_id": kwargs.pop("sweep_id", None),
    }
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("telemetry", False)
    kwargs.setdefault("backoff_base", 0.01)
    return SweepRunner(
        cache_dir=cache_dir,
        coordinator=CoordinatorConfig(**config_kwargs),
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Uninterrupted pool-mode results for the standard cell set."""
    cache = tmp_path_factory.mktemp("reference-cache")
    runner = SweepRunner(jobs=4, cache_dir=cache, telemetry=False)
    return runner.run_cells(coord_cells())


# ----------------------------------------------------- basic equivalence


class TestCoordinatorEquivalence:
    def test_matches_pool_results_bit_identically(self, tmp_path, reference):
        runner = coord_runner(tmp_path / "cache")
        results = runner.run_cells(coord_cells())
        assert results == reference
        assert runner.stats.simulated == CELL_COUNT
        assert runner.stats.cells_resumed == 0
        assert runner.last_sweep_id is not None

    def test_sweep_dir_holds_journal_and_leases_only(self, tmp_path):
        """Attempts live in the journal, one ``start`` record each; the
        sweep directory keeps no other per-cell file."""
        cells = coord_cells(4)
        runner = coord_runner(tmp_path / "cache", sweep_id="lean")
        runner.run_cells(cells)
        sweep_dir = tmp_path / "cache" / "sweeps" / "lean"
        assert sorted(p.name for p in sweep_dir.iterdir()) == [
            "cells.pkl", "journal.bin", "leases", "manifest.json",
        ]
        records, _, _ = Journal(sweep_dir / "journal.bin").read_from(0)
        starts = [r for r in records if r.get("kind") == "start"]
        assert sorted(r["fp"] for r in starts) == sorted(
            cell_fingerprint(c) for c in cells
        )
        assert all(r["attempt"] == 1 for r in starts)

    def test_second_run_resumes_everything(self, tmp_path, reference):
        cells = coord_cells(6)
        coord_runner(tmp_path / "cache").run_cells(cells)
        again = coord_runner(tmp_path / "cache")
        results = again.run_cells(cells)
        assert results == reference[:6]
        assert again.stats.cells_resumed == 6
        assert again.stats.simulated == 0

    def test_prewarmed_cache_counts_as_hits_not_resume(self, tmp_path):
        cells = coord_cells(5)
        plain = SweepRunner(jobs=1, cache_dir=tmp_path / "cache",
                            telemetry=False)
        expected = plain.run_cells(cells)
        runner = coord_runner(tmp_path / "cache")
        results = runner.run_cells(cells)
        assert results == expected
        assert runner.stats.cache_hits == 5
        assert runner.stats.cells_resumed == 0
        assert runner.stats.simulated == 0

    def test_requires_cache_and_rejects_telemetry(self, tmp_path):
        with pytest.raises(ValueError, match="requires the result cache"):
            SweepRunner(use_cache=False, coordinator=CoordinatorConfig())
        with pytest.raises(ValueError, match="telemetry"):
            SweepRunner(cache_dir=tmp_path, telemetry=True,
                        coordinator=CoordinatorConfig())

    def test_rejects_a_cell_timeout(self, tmp_path, monkeypatch):
        """Runners enforce no per-cell deadline, so a timeout from the
        argument or the environment is refused before any spawns."""
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        with pytest.raises(ValueError, match="--cell-timeout"):
            SweepRunner(cache_dir=tmp_path, telemetry=False,
                        cell_timeout=5, coordinator=CoordinatorConfig())
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "5")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            SweepRunner(cache_dir=tmp_path, telemetry=False,
                        coordinator=CoordinatorConfig())
        # A non-positive timeout means none at all.
        runner = SweepRunner(cache_dir=tmp_path, telemetry=False,
                             cell_timeout=0, coordinator=CoordinatorConfig())
        assert runner.cell_timeout is None


# ------------------------------------------------------ sweep identity


class TestSweepIdentity:
    def test_derived_id_is_content_addressed(self, tmp_path):
        cells = coord_cells(4)
        keys = [cell_fingerprint(c) for c in cells]
        assert derive_sweep_id(keys) == derive_sweep_id(list(reversed(keys)))
        assert derive_sweep_id(keys) != derive_sweep_id(keys[:3])

    def test_same_id_different_cells_rejected(self, tmp_path):
        coord_runner(tmp_path / "cache", sweep_id="fixed").run_cells(
            coord_cells(3)
        )
        clashing = coord_runner(tmp_path / "cache", sweep_id="fixed")
        with pytest.raises(SweepError, match="different sweep"):
            clashing.run_cells(coord_cells(5))

    def test_load_cells_round_trip_and_missing_dir(self, tmp_path):
        cells = coord_cells(3)
        runner = coord_runner(tmp_path / "cache", sweep_id="trip")
        runner.run_cells(cells)
        sweep_dir = tmp_path / "cache" / "sweeps" / "trip"
        loaded = load_cells(sweep_dir)
        assert [cell_fingerprint(c) for c in loaded] == [
            cell_fingerprint(c) for c in cells
        ]
        with pytest.raises(SweepError, match="cells.pkl"):
            load_cells(tmp_path / "cache" / "sweeps" / "nope")


# ------------------------------------------------------ attempt ledger


class TestAttemptLedger:
    def test_fold_counts_starts_until_a_resetting_requeue(self):
        ledger = SweepStats.fold([
            {"kind": "start", "fp": "a", "attempt": 1},
            {"kind": "error", "fp": "a", "attempt": 1},
            {"kind": "start", "fp": "a", "attempt": 2},
            {"kind": "done", "fp": "a", "attempt": 2},
            {"kind": "trace", "event": "materialized", "fp": "a"},
        ])
        assert ledger.starts == {"a": 2} and "a" in ledger.settled
        # A corrupt ``done`` requeues without a reset: the spent
        # attempts still count.
        ledger.apply({"kind": "requeue", "fp": "a"})
        assert ledger.starts == {"a": 2} and "a" not in ledger.settled
        # Resuming a failed cell resets its budget.
        ledger.apply({"kind": "failed", "fp": "a", "attempt": 3})
        ledger.apply({"kind": "requeue", "fp": "a", "reset": True})
        assert ledger.starts == {} and "a" not in ledger.settled

    def test_sweep_dir_from_before_the_ledger_resumes(
        self, tmp_path, reference
    ):
        """A journal without ``start`` records starts each cell at
        attempt 1, and a leftover ``trace`` record and ``attempts/``
        directory are ignored."""
        cells = coord_cells(3)
        cache = tmp_path / "cache"
        coord_runner(cache, sweep_id="legacy").run_cells(cells)
        lost = cell_fingerprint(cells[1])
        sweep_dir = cache / "sweeps" / "legacy"
        journal_path = sweep_dir / "journal.bin"
        records, _, _ = Journal(journal_path).read_from(0)
        journal_path.unlink()
        journal = Journal(journal_path)
        for record in records:
            if record.get("kind") != "start" and record.get("fp") != lost:
                journal.append(record)
        journal.append({"kind": "trace", "event": "materialized",
                        "fp": lost, "runner": "r0", "bytes": 1})
        (sweep_dir / "attempts").mkdir(exist_ok=True)
        (sweep_dir / "attempts" / f"{lost}.json").write_text(
            '{"attempt": 3}'
        )
        ResultCache(cache).path_for(lost).unlink()

        resumed = coord_runner(cache, sweep_id="legacy", max_attempts=3)
        assert resumed.run_cells(cells) == reference[:3]
        assert resumed.stats.cells_resumed == 2
        assert resumed.stats.simulated == 1
        assert resumed.stats.failures == []


# ------------------------------------------------------------- leases


class TestLeases:
    def test_acquire_is_exclusive(self, tmp_path):
        first = _acquire_lease(tmp_path, "k1", "r0:1", ttl=30.0)
        assert first is not None and first.stolen_from is None
        assert _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0) is None

    def test_release_frees_the_cell(self, tmp_path):
        claim = _acquire_lease(tmp_path, "k1", "r0:1", ttl=30.0)
        _release_lease(claim)
        again = _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0)
        assert again is not None and again.stolen_from is None

    def test_expired_lease_is_stolen_with_attribution(self, tmp_path):
        claim = _acquire_lease(tmp_path, "k1", "r0:1", ttl=0.05)
        assert claim is not None
        time.sleep(0.1)
        theft = _acquire_lease(tmp_path, "k1", "r1:2", ttl=0.05)
        assert theft is not None
        assert theft.stolen_from == "r0:1"

    def test_one_thief_per_expired_lease(self, tmp_path):
        _acquire_lease(tmp_path, "k1", "r0:1", ttl=0.05)
        time.sleep(0.1)
        expired = (tmp_path / "k1.lease").read_bytes()
        assert _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0) is not None
        # A second thief that read the same expired lease before the
        # first one's rename landed (replayed by putting it back) loses.
        (tmp_path / "k1.lease").write_bytes(expired)
        assert _acquire_lease(tmp_path, "k1", "r2:3", ttl=30.0) is None

    def test_orphaned_steal_marker_is_taken_over_after_a_ttl(
        self, tmp_path
    ):
        """A thief that died between its marker and its rename-over
        leaves the expired lease in place; one TTL later a thief takes
        the cell over, and of two such thieves only one does."""
        _acquire_lease(tmp_path, "k1", "r0:1", ttl=0.05)
        time.sleep(0.1)
        lease = tmp_path / "k1.lease"
        expired = lease.read_bytes()
        renewed = _lease_state(lease, 0.05)[1]
        (tmp_path / f"k1.{renewed!r}.steal").touch()  # the dead thief's
        assert _acquire_lease(tmp_path, "k1", "r1:2", ttl=0.3) is None
        time.sleep(0.35)
        theft = _acquire_lease(tmp_path, "k1", "r1:2", ttl=0.3)
        assert theft is not None and theft.stolen_from == "r0:1"
        # A second thief that read the same expired lease (replayed by
        # putting it back) loses the successor marker.
        lease.write_bytes(expired)
        assert _acquire_lease(tmp_path, "k1", "r2:3", ttl=0.3) is None

    def test_failed_steal_write_frees_the_marker(
        self, tmp_path, monkeypatch
    ):
        """A thief whose rename-over fails drops its marker, so the next
        thief (here the same one) takes the lease without waiting."""
        _acquire_lease(tmp_path, "k1", "r0:1", ttl=0.05)
        time.sleep(0.1)
        write_lease = coordinator._write_lease
        calls = []

        def fail_once(path, token, ttl):
            calls.append(token)
            if len(calls) == 1:
                raise OSError("injected lease write failure")
            write_lease(path, token, ttl)

        monkeypatch.setattr(coordinator, "_write_lease", fail_once)
        assert _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0) is None
        theft = _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0)
        assert theft is not None and theft.stolen_from == "r0:1"
        assert calls == ["r1:2", "r1:2"]

    def test_release_tolerates_theft(self, tmp_path):
        claim = _acquire_lease(tmp_path, "k1", "r0:1", ttl=0.05)
        time.sleep(0.1)
        theft = _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0)
        assert theft is not None
        # The original holder releasing must not free the thief's lease.
        _release_lease(claim)
        assert _acquire_lease(tmp_path, "k1", "r2:3", ttl=30.0) is None

    def test_fresh_unwritten_lease_not_stolen(self, tmp_path):
        # An empty lease file (creator raced between create and write)
        # falls back to mtime — and a just-created file is fresh.
        path = tmp_path / "k1.lease"
        path.touch()
        assert _acquire_lease(tmp_path, "k1", "r1:2", ttl=30.0) is None


# ------------------------------------------ chaos through the coordinator


class TestCoordinatorChaos:
    def test_die_hard_runner_is_stolen_from(self, tmp_path, reference):
        cells = coord_cells(8)
        chaos = ChaosSchedule({"c02": (FaultKind.DIE_HARD,)})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              lease_ttl=1.0, on_error="retry")
        results = runner.run_cells(cells)
        assert results == reference[:8]
        assert runner.stats.leases_stolen >= 1

    def test_stale_lease_stolen_results_identical(self, tmp_path, reference):
        cells = coord_cells(6)
        chaos = ChaosSchedule({"c01": (FaultKind.STALE_LEASE,)})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              lease_ttl=0.5, on_error="retry")
        results = runner.run_cells(cells)
        assert results == reference[:6]
        assert runner.stats.leases_stolen >= 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_corrupt_write_quarantined_and_recomputed(
        self, tmp_path, reference
    ):
        cells = coord_cells(6)
        chaos = ChaosSchedule({"c03": (FaultKind.CORRUPT_WRITE,)})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              on_error="retry")
        results = runner.run_cells(cells)
        # The corrupt entry is never returned: the final result is the
        # recomputed, verified one, identical to the reference.
        assert results == reference[:6]
        assert runner.stats.entries_quarantined == 1
        assert runner.stats.retries == 1
        assert runner.stats.simulated == 6
        corrupt_dir = tmp_path / "cache" / "corrupt"
        assert corrupt_dir.is_dir() and any(corrupt_dir.iterdir())

    def test_persistent_failure_recorded_as_cellfailure(self, tmp_path):
        cells = coord_cells(4)
        chaos = ChaosSchedule(
            {"c02": (FaultKind.RAISE, FaultKind.RAISE, FaultKind.RAISE)}
        )
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              on_error="retry", max_attempts=3)
        results = runner.run_cells(cells)
        assert results[2] is None
        assert [r is not None for r in results] == [True, True, False, True]
        assert len(runner.stats.failures) == 1
        failure = runner.stats.failures[0]
        assert failure.tag == "c02" and failure.attempts == 3
        assert "ChaosError" in failure.error
        assert runner.stats.retries == 2

    def test_killer_cell_settles_after_the_attempt_budget(
        self, tmp_path, reference
    ):
        """A cell that SIGKILLs every runner that starts it settles as
        one ``worker-died`` failure once ``max_attempts`` are spent."""
        cells = coord_cells(4)
        chaos = ChaosSchedule({"c01": (FaultKind.DIE_HARD,) * 3})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              lease_ttl=1.0, on_error="skip",
                              max_attempts=3)
        results = runner.run_cells(cells)
        assert len(runner.stats.failures) == 1
        failure = runner.stats.failures[0]
        assert failure.tag == "c01"
        assert failure.kind == "worker-died" and failure.attempts == 3
        assert results[1] is None
        assert [r for i, r in enumerate(results) if i != 1] == [
            r for i, r in enumerate(reference[:4]) if i != 1
        ]

    def test_failure_under_raise_aborts_with_sweep_error(self, tmp_path):
        cells = coord_cells(3)
        chaos = ChaosSchedule({"c01": (FaultKind.RAISE,)})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              on_error="raise")
        with pytest.raises(SweepError, match="injected raise"):
            runner.run_cells(cells)
        assert [f.tag for f in runner.stats.failures] == ["c01"]
        assert runner.stats.retries == 0

    def test_dead_runner_costs_one_retry(self, tmp_path, reference):
        """A runner that dies mid-cell loses its lease; the thief's
        attempt is the cell's second ``start`` and its one retry."""
        cells = coord_cells(4)
        chaos = ChaosSchedule({"c01": (FaultKind.DIE,)})
        runner = coord_runner(tmp_path / "cache", chaos=chaos,
                              lease_ttl=1.0, on_error="retry",
                              sweep_id="die")
        assert runner.run_cells(cells) == reference[:4]
        assert runner.stats.retries == 1
        assert runner.stats.failures == []
        journal = tmp_path / "cache" / "sweeps" / "die" / "journal.bin"
        records, _, _ = Journal(journal).read_from(0)
        key = cell_fingerprint(cells[1])
        assert [
            r["attempt"] for r in records
            if r.get("kind") == "start" and r.get("fp") == key
        ] == [1, 2]

    def test_resume_retries_previously_failed_cells(self, tmp_path,
                                                    reference):
        cells = coord_cells(4)
        chaos = ChaosSchedule(
            {"c02": (FaultKind.RAISE, FaultKind.RAISE, FaultKind.RAISE)}
        )
        first = coord_runner(tmp_path / "cache", sweep_id="retry-me",
                             chaos=chaos, on_error="retry", max_attempts=3)
        assert first.run_cells(cells)[2] is None
        # Resuming without the chaos schedule: the failed cell gets a
        # fresh attempt budget and completes this time.
        second = coord_runner(tmp_path / "cache", sweep_id="retry-me",
                              on_error="retry", max_attempts=3)
        results = second.run_cells(cells)
        assert results == reference[:4]
        assert second.stats.cells_resumed == 3
        assert second.stats.simulated == 1


# ---------------------------------------------- SIGKILL + resume (e2e)


KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {root!r})
    from tests.test_coordinator import coord_cells, coord_runner
    runner = coord_runner({cache!r}, sweep_id={sweep_id!r},
                          runners=2, lease_ttl=2.0)
    runner.run_cells(coord_cells())
    """
)


def _count_done(journal_path):
    if not journal_path.exists():
        return 0
    records, _, _ = Journal(journal_path).read_from(0)
    return sum(1 for r in records if r.get("kind") == "done")


def _run_and_kill_at(cache_dir, sweep_id, kill_after, timeout=120.0):
    """Start a coordinator sweep in its own process group and SIGKILL
    the whole group once ``kill_after`` cells are journaled done."""
    script = KILL_SCRIPT.format(
        src=str(SRC_DIR), root=str(REPO_ROOT),
        cache=str(cache_dir), sweep_id=sweep_id,
    )
    journal_path = cache_dir / "sweeps" / sweep_id / "journal.bin"
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if _count_done(journal_path) >= kill_after:
                break
            if proc.poll() is not None:
                raise AssertionError(
                    f"sweep finished before reaching {kill_after} "
                    "completions; enlarge the cells"
                )
            time.sleep(0.002)
        else:
            raise AssertionError("sweep never reached the kill point")
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=30)


@pytest.mark.parametrize("kill_after", [2, 6, 12])
def test_sigkill_then_resume_is_bit_identical(
    tmp_path, reference, kill_after
):
    """Kill a 2-runner sweep (runners included) at a deterministic
    completion count; resuming finishes it with results bit-identical
    to an uninterrupted run and >0 cells adopted from the journal."""
    cache = tmp_path / "cache"
    sweep_id = f"kill-{kill_after}"
    _run_and_kill_at(cache, sweep_id, kill_after)

    resumed = coord_runner(cache, sweep_id=sweep_id, lease_ttl=2.0)
    results = resumed.run_cells(coord_cells())
    assert results == reference
    assert resumed.stats.cells_resumed >= kill_after
    assert resumed.stats.cells_resumed < CELL_COUNT
    assert resumed.stats.simulated > 0
    # Every cell is adopted exactly once: from the journal (resumed),
    # by re-running it (simulated), or — when the SIGKILL landed after
    # cache.put but before the journal append — from the cache pre-scan.
    assert (
        resumed.stats.cells_resumed
        + resumed.stats.simulated
        + resumed.stats.cache_hits
        == CELL_COUNT
    )

    # Double resume: idempotent, everything adopted, nothing re-run.
    again = coord_runner(cache, sweep_id=sweep_id, lease_ttl=2.0)
    assert again.run_cells(coord_cells()) == results
    assert again.stats.cells_resumed == CELL_COUNT
    assert again.stats.simulated == 0


def test_resume_recovers_torn_journal_tail(tmp_path, reference):
    """A crash mid-append leaves a torn tail; resume truncates it and
    recomputes only the lost record's cell."""
    cells = coord_cells(5)
    runner = coord_runner(tmp_path / "cache", sweep_id="torn")
    results = runner.run_cells(cells)
    journal_path = tmp_path / "cache" / "sweeps" / "torn" / "journal.bin"
    size = journal_path.stat().st_size
    os.truncate(journal_path, size - 7)  # tear the final record

    resumed = coord_runner(tmp_path / "cache", sweep_id="torn")
    assert resumed.run_cells(cells) == results == reference[:5]
    assert resumed.stats.cells_resumed + resumed.stats.cache_hits == 5


def test_resume_reads_past_a_torn_frame_mid_journal(tmp_path, reference):
    """A runner that dies mid-append while others keep appending leaves
    torn bytes in the middle of the journal; resume skips them and
    adopts every later ``done`` record without re-simulating it."""
    cells = coord_cells(5)
    runner = coord_runner(tmp_path / "cache", sweep_id="torn-mid")
    results = runner.run_cells(cells)
    journal_path = tmp_path / "cache" / "sweeps" / "torn-mid" / "journal.bin"
    records = Journal(journal_path).replay()
    journal_path.unlink()
    journal = Journal(journal_path)
    journal.append(records[0])
    with open(journal_path, "ab") as fh:
        fh.write(b"\x40\x00\x00\x00\x12\x34")
    for record in records[1:]:
        journal.append(record)

    resumed = coord_runner(tmp_path / "cache", sweep_id="torn-mid")
    assert resumed.run_cells(cells) == results == reference[:5]
    assert resumed.stats.cells_resumed == 5
    assert resumed.stats.simulated == 0
    assert Journal(journal_path).replay()[: len(records)] == records


def test_cli_sweep_kill_and_resume(tmp_path):
    """The user-facing flow: ``repro sweep --runners`` killed with
    SIGKILL, continued by ``repro sweep --resume <id>``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    args = [sys.executable, "-m", "repro", "sweep", "LPS",
            "--runners", "2", "--sweep-id", "cli-kill", "--jobs", "1",
            "--lease-ttl", "2"]
    journal_path = (
        tmp_path / "cache" / "sweeps" / "cli-kill" / "journal.bin"
    )
    proc = subprocess.Popen(args, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 120.0
    killed = False
    try:
        while time.monotonic() < deadline:
            if _count_done(journal_path) >= 1:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
                break
            if proc.poll() is not None:
                break
            time.sleep(0.002)
    finally:
        proc.wait(timeout=30)

    resume = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--resume", "cli-kill",
         "--jobs", "1", "--lease-ttl", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert resume.returncode == 0, resume.stdout + resume.stderr
    assert "perf/64KB" in resume.stdout
    if killed:
        assert "resumed from journal" in resume.stdout
