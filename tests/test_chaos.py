"""Fault-tolerant sweep execution under deterministic chaos injection.

The chaos harness (``repro.sim.chaos``) makes designated worker cells
raise, hang past the cell timeout, or die mid-run on a fixed schedule.
These tests are the proof behind the fault-tolerance layer's claims:
sweeps complete under injected failure, retries fire with bounded
deterministic backoff, hung cells are killed and reported promptly, and
no finished cell's result is ever lost from the cache.

Worker count defaults to 4 (the CI chaos job's ``--jobs 4``) and can be
overridden via ``REPRO_TEST_JOBS``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ChaosError, SweepError
from repro.policies import StaticPaging
from repro.sim.chaos import (
    DEFERRED_KINDS,
    ChaosDirective,
    ChaosSchedule,
    FaultKind,
    apply_chaos,
)
from repro.sim import parallel
from repro.sim.durability import corrupt_file
from repro.sim.parallel import (
    CellFailure,
    OnError,
    ResultCache,
    SweepCell,
    SweepRunner,
    cell_fingerprint,
)
from repro.units import MB, PAGE_64K

from .conftest import make_spec, partitioned

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

JOBS = int(os.environ.get("REPRO_TEST_JOBS", "4"))


def chaos_spec(abbr):
    return make_spec(
        partitioned(size=8 * MB, waves=2, lines_per_touch=4), abbr=abbr
    )


def chaos_cells(count):
    """``count`` distinct cells tagged c00..cNN (seed varies the work)."""
    return [
        SweepCell(chaos_spec(f"W{i:02d}"), "S-64KB", seed=i, tag=f"c{i:02d}")
        for i in range(count)
    ]


class _SleepyPolicy(StaticPaging):
    """S-64KB that sleeps ``delay`` seconds in ``attach``: a real slow or
    hung cell, not a chaos directive."""

    def __init__(self, delay):
        super().__init__(PAGE_64K)
        self.delay = delay

    def attach(self, machine, workload):
        time.sleep(self.delay)
        super().attach(machine, workload)


class _TwoArgError(Exception):
    """Pickles, but its constructor cannot rebuild it from ``args``."""

    def __init__(self, what, how):
        super().__init__(f"{what} {how}")


class _FailingPolicy(StaticPaging):
    """S-64KB whose ``attach`` raises a chained exception that does not
    survive a pickle round trip."""

    def __init__(self):
        super().__init__(PAGE_64K)

    def attach(self, machine, workload):
        raise _TwoArgError("attach", "failed") from ValueError("root cause")


def sleepy_cell(index, delay):
    return SweepCell(
        chaos_spec(f"W{index:02d}"), _SleepyPolicy(delay), seed=index,
        tag=f"c{index:02d}",
    )


def make_runner(tmp_path=None, **kwargs):
    kwargs.setdefault("jobs", JOBS)
    kwargs.setdefault("backoff_base", 0.01)  # keep test retries fast
    if tmp_path is None:
        kwargs.setdefault("use_cache", False)
        return SweepRunner(**kwargs)
    return SweepRunner(cache_dir=tmp_path, **kwargs)


# --- the headline guarantee: big sweeps survive injected failure -------


class TestSweepSurvivesChaos:
    def test_retry_completes_a_large_faulty_sweep(self, tmp_path):
        """20+ cells with crashes and worker deaths all complete under
        --on-error retry, and every result lands in the cache."""
        cells = chaos_cells(24)
        chaos = ChaosSchedule(
            {
                "c03": (FaultKind.RAISE,),
                "c07": (FaultKind.DIE,),
                "c11": (FaultKind.RAISE, FaultKind.RAISE),
                "c15": (FaultKind.DIE,),
                "c19": (FaultKind.RAISE,),
            }
        )
        runner = make_runner(
            tmp_path, on_error=OnError.RETRY, max_attempts=3, chaos=chaos
        )
        results = runner.run_cells(cells)

        assert len(results) == 24
        assert all(result is not None for result in results)
        assert runner.stats.failures == []
        # c11 raises twice; every other faulty cell fails once.
        assert runner.stats.retries == 6
        # Every successfully simulated cell is in the cache afterwards.
        cache = ResultCache(tmp_path)
        for cell in cells:
            assert cache.get(cell_fingerprint(cell)) is not None

    def test_chaotic_results_match_a_clean_run(self):
        """Injected faults never change what a cell computes."""
        clean = make_runner(jobs=1).run_cells(chaos_cells(4))
        chaos = ChaosSchedule({"c01": (FaultKind.RAISE,), "c02": ("die",)})
        runner = make_runner(
            on_error=OnError.RETRY, max_attempts=3, chaos=chaos
        )
        assert runner.run_cells(chaos_cells(4)) == clean

    def test_skip_records_failures_and_continues(self, tmp_path):
        """Persistently failing cells become CellFailure records; the
        rest of the sweep completes and is cached."""
        cells = chaos_cells(6)
        chaos = ChaosSchedule(
            {"c01": (FaultKind.RAISE,) * 9, "c04": (FaultKind.RAISE,) * 9}
        )
        runner = make_runner(tmp_path, on_error="skip", chaos=chaos)
        results = runner.run_cells(cells)

        assert results[1] is None and results[4] is None
        assert all(
            results[i] is not None for i in range(6) if i not in (1, 4)
        )
        failed = {failure.tag for failure in runner.stats.failures}
        assert failed == {"c01", "c04"}
        for failure in runner.stats.failures:
            assert isinstance(failure, CellFailure)
            assert failure.kind == "error"
            assert "ChaosError" in failure.error
            assert failure.fingerprint == cell_fingerprint(
                cells[1 if failure.tag == "c01" else 4]
            )
        assert "2 failed" in runner.summary_line()
        assert runner.failure_report().count("FAILED") == 2
        cache = ResultCache(tmp_path)
        for i in (0, 2, 3, 5):
            assert cache.get(cell_fingerprint(cells[i])) is not None

    def test_raise_aborts_naming_the_cell_and_keeps_finished_work(
        self, tmp_path
    ):
        """--on-error raise aborts with a SweepError carrying the
        failing fingerprint; earlier completed cells stay cached."""
        cells = chaos_cells(6)
        bad_key = cell_fingerprint(cells[5])
        chaos = ChaosSchedule({"c05": (FaultKind.RAISE,)})
        runner = make_runner(tmp_path, jobs=2, on_error="raise", chaos=chaos)
        with pytest.raises(SweepError) as excinfo:
            runner.run_cells(cells)
        assert excinfo.value.fingerprint == bad_key
        assert bad_key in str(excinfo.value)
        # With 2 workers and 6 queued cells, the first four completed
        # (and were flushed) before the last cell was even submitted.
        cache = ResultCache(tmp_path)
        for i in range(4):
            assert cache.get(cell_fingerprint(cells[i])) is not None


# --- timeouts ----------------------------------------------------------


class TestCellTimeout:
    def test_hung_cell_is_killed_and_reported_within_twice_the_timeout(
        self,
    ):
        timeout = 1.0
        chaos = ChaosSchedule({"c00": ("hang",)}, hang_seconds=60.0)
        runner = make_runner(
            jobs=2, on_error="skip", max_attempts=1,
            cell_timeout=timeout, chaos=chaos,
        )
        start = time.perf_counter()
        results = runner.run_cells(chaos_cells(1))
        elapsed = time.perf_counter() - start

        assert results == [None]
        assert runner.stats.timeouts == 1
        assert [failure.kind for failure in runner.stats.failures] == [
            "timeout"
        ]
        assert elapsed < 2 * timeout

    def test_hung_cell_recovers_on_retry(self, tmp_path):
        """A hang on attempt 1 is killed; the retry completes the cell
        and its sibling finishes undisturbed."""
        cells = chaos_cells(2)
        chaos = ChaosSchedule({"c00": ("hang",)}, hang_seconds=60.0)
        runner = make_runner(
            tmp_path, jobs=2, on_error="retry", max_attempts=2,
            cell_timeout=1.0, chaos=chaos,
        )
        results = runner.run_cells(cells)
        assert all(result is not None for result in results)
        assert runner.stats.timeouts == 1
        # Only c00's second attempt is a retry.
        assert runner.stats.retries == 1
        assert runner.stats.failures == []
        cache = ResultCache(tmp_path)
        for cell in cells:
            assert cache.get(cell_fingerprint(cell)) is not None

    def test_a_timeout_preempts_no_sibling(self):
        """c00 hangs past its 3 s deadline while c02, started after c01
        on the other worker, is still running: only c00's worker is
        killed, so every clean cell starts exactly once."""
        cells = chaos_cells(1) + [sleepy_cell(1, 1.2), sleepy_cell(2, 2.2)]
        chaos = ChaosSchedule({"c00": ("hang",)}, hang_seconds=60.0)
        runner = make_runner(
            jobs=2, on_error="skip", max_attempts=1, cell_timeout=3.0,
            chaos=chaos,
        )
        results = runner.run_cells(cells)
        assert results[0] is None and None not in results[1:]
        assert [f.kind for f in runner.stats.failures] == ["timeout"]
        for cell in cells[1:]:
            key = cell_fingerprint(cell)
            assert [
                r["attempt"] for r in runner.records
                if r["kind"] == "start" and r["fp"] == key
            ] == [1]
        assert runner.stats.retries == 0

    def test_a_backoff_holds_back_no_deadline(self):
        """c01's 3 s-scale backoff does not delay c00's timeout: the
        parent waits for the next result, deadline or due backoff."""
        timeout = 1.0
        chaos = ChaosSchedule(
            {"c00": ("hang",), "c01": ("raise",)}, hang_seconds=60.0
        )
        runner = make_runner(
            jobs=2, on_error="retry", max_attempts=2, cell_timeout=timeout,
            backoff_base=3.0, chaos=chaos,
        )
        timed_out = []
        record = runner._record

        def stamped(rec):
            if rec.get("fail_kind") == "timeout":
                timed_out.append(time.perf_counter() - start)
            return record(rec)

        runner._record = stamped
        start = time.perf_counter()
        results = runner.run_cells(chaos_cells(2))
        assert all(result is not None for result in results)
        assert len(timed_out) == 1 and timed_out[0] < 2 * timeout
        assert runner.stats.retries == 2

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_a_real_hang_times_out_on_every_attempt(self, jobs):
        """Every pooled attempt runs under the deadline, the last one
        too, and --jobs 1 with a timeout runs its cells on one worker."""
        runner = make_runner(
            jobs=jobs, on_error="skip", max_attempts=2, cell_timeout=1.0
        )
        start = time.perf_counter()
        assert runner.run_cells([sleepy_cell(0, 6.0)]) == [None]
        assert time.perf_counter() - start < 3.0
        assert runner.stats.timeouts == 2
        assert [f.kind for f in runner.stats.failures] == ["timeout"]

    def test_timeout_resolution_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "2.5")
        assert SweepRunner(jobs=1, use_cache=False).cell_timeout == 2.5
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert SweepRunner(jobs=1, use_cache=False).cell_timeout is None
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            SweepRunner(jobs=1, use_cache=False)


# --- retry pacing ------------------------------------------------------


class TestBackoff:
    def test_backoff_is_deterministic_under_a_fixed_seed(self):
        a = make_runner(jobs=1, backoff_seed=42)
        b = make_runner(jobs=1, backoff_seed=42)
        c = make_runner(jobs=1, backoff_seed=43)
        key = "f" * 64
        delays_a = [a._backoff_delay(key, k) for k in range(2, 6)]
        delays_b = [b._backoff_delay(key, k) for k in range(2, 6)]
        delays_c = [c._backoff_delay(key, k) for k in range(2, 6)]
        assert delays_a == delays_b
        assert delays_a != delays_c

    def test_backoff_is_bounded_and_grows(self):
        runner = make_runner(
            jobs=1, backoff_base=0.25, backoff_cap=4.0, backoff_seed=7
        )
        key = "a" * 64
        delays = [runner._backoff_delay(key, k) for k in range(2, 12)]
        assert all(0 < delay < 4.0 * 1.5 for delay in delays)
        # The uncapped exponential envelope doubles per attempt.
        assert max(delays) > delays[0]

    def test_retry_sleeps_exactly_the_scheduled_backoff(self):
        """Integration: the serial retry path waits the deterministic
        delays — no wall-clock dependence, so recorded sleeps match the
        pure function exactly."""
        chaos = ChaosSchedule({"c00": (FaultKind.RAISE, FaultKind.RAISE)})
        runner = make_runner(
            jobs=1, on_error="retry", max_attempts=3,
            backoff_seed=11, chaos=chaos,
        )
        slept = []
        runner._sleep = slept.append
        results = runner.run_cells(chaos_cells(1))
        assert results[0] is not None
        key = cell_fingerprint(chaos_cells(1)[0])
        assert slept == [
            runner._backoff_delay(key, 2),
            runner._backoff_delay(key, 3),
        ]
        assert runner.stats.retries == 2


# --- the harness itself ------------------------------------------------


class TestChaosHarness:
    def test_schedule_is_per_tag_and_per_attempt(self):
        schedule = ChaosSchedule({"x": ("die", None, "raise")})
        assert schedule.directive_for("x", 1).kind is FaultKind.DIE
        assert schedule.directive_for("x", 2) is None
        assert schedule.directive_for("x", 3).kind is FaultKind.RAISE
        assert schedule.directive_for("x", 4) is None
        assert schedule.directive_for("y", 1) is None
        assert schedule.faulty_tags() == ("x",)

    def test_seeded_schedule_is_reproducible(self):
        tags = [f"c{i:02d}" for i in range(50)]
        a = ChaosSchedule.seeded(123, tags, fault_rate=0.4)
        b = ChaosSchedule.seeded(123, tags, fault_rate=0.4)
        c = ChaosSchedule.seeded(124, tags, fault_rate=0.4)
        assert a.faulty_tags() == b.faulty_tags()
        assert a.faulty_tags() != c.faulty_tags()
        assert 0 < len(a) < len(tags)

    def test_in_process_chaos_never_hangs_or_kills(self):
        """HANG, DIE and DIE_HARD downgrade to ChaosError in-process, so
        in-process attempts cannot take down (or stall) the parent."""
        for kind in (FaultKind.HANG, FaultKind.DIE, FaultKind.DIE_HARD):
            with pytest.raises(ChaosError):
                apply_chaos(
                    ChaosDirective(kind, hang_seconds=60.0), in_process=True
                )

    def test_fault_kind_wire_values_are_stable(self):
        """The string values travel through journals and CLI flags:
        renaming one silently breaks saved chaos plans."""
        assert FaultKind.DIE_HARD.value == "die_hard"
        assert FaultKind.CORRUPT_WRITE.value == "corrupt_write"
        assert FaultKind.STALE_LEASE.value == "stale_lease"
        assert FaultKind("die_hard") is FaultKind.DIE_HARD

    def test_deferred_kinds_are_noops_in_apply_chaos(self):
        """CORRUPT_WRITE and STALE_LEASE act around the durability layer
        (after the result is published / around lease renewal); the
        worker entry point must pass them through untouched."""
        for kind in DEFERRED_KINDS:
            apply_chaos(ChaosDirective(kind))  # must not raise or exit
            apply_chaos(ChaosDirective(kind), in_process=True)


#: A sweep whose first cell's policy exits its process on every
#: attempt, beside a healthy cell; run in a child interpreter so that a
#: runner which ran an attempt in-process dies there, not in pytest.
_EXITING_SWEEP = """
import json, os
from repro.policies import StaticPaging
from repro.sim.parallel import SweepCell, SweepRunner
from repro.units import PAGE_64K

class ExitingPolicy(StaticPaging):
    def attach(self, machine, workload):
        os._exit(13)

runner = SweepRunner(
    jobs=2, use_cache=False, on_error="skip", max_attempts=2,
    backoff_base=0.01,
)
results = runner.run_cells([
    SweepCell("STE", ExitingPolicy(PAGE_64K)),
    SweepCell("STE", StaticPaging(PAGE_64K)),
])
print(json.dumps({
    "done": [result is not None for result in results],
    "failures": [[f.kind, f.attempts, f.error]
                 for f in runner.stats.failures],
}))
"""

#: One hanging and one clean cell at two jobs; each policy drops a file
#: named after its worker's pid in ``attach``, so the test knows both
#: workers, one busy and one idle, before it kills this parent.
_ORPHANING_SWEEP = """
import os, sys, time
from repro.policies import StaticPaging
from repro.sim.parallel import SweepCell, SweepRunner
from repro.units import PAGE_64K

class PidPolicy(StaticPaging):
    def attach(self, machine, workload):
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        super().attach(machine, workload)

class HangingPolicy(PidPolicy):
    def attach(self, machine, workload):
        super().attach(machine, workload)
        time.sleep(600)

SweepRunner(jobs=2, use_cache=False).run_cells([
    SweepCell("STE", HangingPolicy(PAGE_64K)),
    SweepCell("STE", PidPolicy(PAGE_64K)),
])
"""


def _alive(pid):
    """Whether ``pid`` runs; a zombie, dead but not reaped, is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestOwnedPool:
    """A worker's death or a failure reads the same as in-process."""

    def test_a_worker_that_always_exits_fails_only_its_own_cell(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-c", _EXITING_SWEEP], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outcome = json.loads(proc.stdout.splitlines()[-1])
        assert outcome["done"] == [False, True]
        assert outcome["failures"] == [
            ["worker-died", 2, "worker exited with code 13"]
        ]

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs /proc"
    )
    def test_no_worker_outlives_a_killed_parent(self, tmp_path):
        """SIGKILL of the sweep parent runs none of its clean-up, and
        still both workers, the busy and the idle one, exit."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(src)
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        stderr = tmp_path / "stderr.txt"
        with open(stderr, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", _ORPHANING_SWEEP, str(pids_dir)],
                env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
        pids = []
        try:
            deadline = time.monotonic() + 120
            while len(pids) < 2 and proc.poll() is None:
                assert time.monotonic() < deadline, stderr.read_text()
                time.sleep(0.05)
                pids = [int(path.name) for path in pids_dir.iterdir()]
            assert len(pids) == 2 and proc.pid not in pids, (
                stderr.read_text()
            )
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 3.0
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            proc.kill()
            proc.wait()
            for pid in filter(_alive, pids):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # it exited meanwhile
                    pass

    def test_a_worker_found_dead_at_hand_off_costs_no_attempt(
        self, monkeypatch
    ):
        """The first worker is dead before it takes an attempt: the
        attempt goes to its replacement, and only then is it started."""
        dead = []

        class DeadOnArrival(parallel._PoolWorker):
            def __init__(self, *args):
                super().__init__(*args)
                if not dead:
                    dead.append(self)
                    self.process.kill()
                    self.process.join()

        monkeypatch.setattr(parallel, "_PoolWorker", DeadOnArrival)
        runner = make_runner(jobs=1, cell_timeout=60.0)
        assert None not in runner.run_cells(chaos_cells(1))
        assert dead and dead[0].process.exitcode == -9
        assert [r["kind"] for r in runner.records] == [
            "queued", "start", "done"
        ]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_a_failure_reads_the_same_in_every_mode(self, jobs):
        """A worker formats the exception chain itself, and sends the
        text alone for an exception the parent could not rebuild."""
        cells = chaos_cells(2) + [
            SweepCell(chaos_spec("W02"), _FailingPolicy(), tag="c02")
        ]
        chaos = ChaosSchedule({"c00": (FaultKind.RAISE,)})
        runner = make_runner(jobs=jobs, on_error="skip", chaos=chaos)
        results = runner.run_cells(cells)
        assert [result is not None for result in results] == [
            False, True, False,
        ]
        failures = {f.tag: f for f in runner.stats.failures}
        assert failures["c00"].error == "ChaosError: injected raise fault"
        assert failures["c00"].context["kind"] == "raise"
        assert failures["c02"].error == (
            "_TwoArgError: attach failed <- ValueError: root cause"
        )


class TestChaosReachesEveryMode:
    """``corrupt_write`` acts wherever a cell's entry is published, and
    a kind the mode cannot honour is rejected up front."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_corrupt_write_is_found_by_the_next_read(self, tmp_path, jobs):
        cells = chaos_cells(4)
        keys = [cell_fingerprint(cell) for cell in cells]
        clean = make_runner(jobs=jobs).run_cells(chaos_cells(4))
        chaos = ChaosSchedule({"c02": (FaultKind.CORRUPT_WRITE,)})
        chaotic = make_runner(tmp_path, jobs=jobs, chaos=chaos)
        # The sweep returns what it computed; only the entry is damaged.
        assert chaotic.run_cells(cells) == clean
        assert chaotic.stats.entries_quarantined == 0

        again = make_runner(tmp_path, jobs=jobs)
        with pytest.warns(
            RuntimeWarning, match="quarantined corrupt result-cache entry"
        ):
            assert again.run_cells(chaos_cells(4)) == clean
        assert again.stats.entries_quarantined == 1
        assert again.stats.simulated == 1
        assert again.stats.cache_hits == 3
        corrupt = ResultCache(tmp_path).corrupt_dir
        assert [p.name for p in corrupt.iterdir()] == [f"{keys[2]}.json"]

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_stale_lease_needs_a_coordinator(self, jobs):
        chaos = ChaosSchedule({"c00": (None, FaultKind.STALE_LEASE)})
        with pytest.raises(ValueError, match="stale_lease.*coordinator"):
            make_runner(jobs=jobs, chaos=chaos)


class TestCorruptFile:
    """``corrupt_file`` damage is a pure function of (size, salt), so a
    corruption chaos run replays bit-for-bit."""

    PAYLOAD = bytes(range(251)) * 4  # 1004 bytes, no repeats at scale

    def test_even_salt_truncates_to_half(self, tmp_path):
        # crc32("truncate-me") is even -> torn-write mode.
        path = tmp_path / "entry"
        path.write_bytes(self.PAYLOAD)
        assert corrupt_file(path, salt="truncate-me")
        assert path.read_bytes() == self.PAYLOAD[: len(self.PAYLOAD) // 2]

    def test_odd_salt_flips_one_bit(self, tmp_path):
        # crc32("flip") is odd -> bit-rot mode.
        path = tmp_path / "entry"
        path.write_bytes(self.PAYLOAD)
        assert corrupt_file(path, salt="flip")
        damaged = path.read_bytes()
        assert len(damaged) == len(self.PAYLOAD)
        diffs = [
            i for i, (a, b) in enumerate(zip(damaged, self.PAYLOAD))
            if a != b
        ]
        assert len(diffs) == 1
        assert damaged[diffs[0]] == self.PAYLOAD[diffs[0]] ^ 0x40

    def test_same_salt_same_damage(self, tmp_path):
        damaged = []
        for name in ("one", "two"):
            path = tmp_path / name
            path.write_bytes(self.PAYLOAD)
            assert corrupt_file(path, salt="flip")
            damaged.append(path.read_bytes())
        assert damaged[0] == damaged[1]

    def test_missing_and_empty_files_are_not_corruptible(self, tmp_path):
        assert not corrupt_file(tmp_path / "absent")
        empty = tmp_path / "empty"
        empty.touch()
        assert not corrupt_file(empty, salt="flip")
        assert empty.read_bytes() == b""

    def test_serial_runner_survives_die_directives(self):
        chaos = ChaosSchedule({"c00": ("die",) * 9})
        runner = make_runner(jobs=1, on_error="skip", chaos=chaos)
        results = runner.run_cells(chaos_cells(1))
        assert results == [None]
        assert runner.stats.failures[0].kind == "error"
        # In-process the death is an error, and skip retries no errors.
        assert runner.stats.retries == 0
