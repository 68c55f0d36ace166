"""Lease-based work-stealing coordinator for crash-safe distributed sweeps.

:class:`~repro.sim.parallel.SweepRunner`'s pool mode survives worker
faults *inside* one process tree; this module extends fault tolerance to
process death, torn writes and coordinator restarts.  A sweep's cells
are sharded across N independent *runner* processes — and, by pointing
several machines at one shared journal/cache directory, across machines
— with the content-addressed result cache as the rendezvous point:

* **Leases.**  A runner claims a cell by creating
  ``leases/<fingerprint>.lease`` with ``O_CREAT | O_EXCL``
  (:func:`~repro.sim.durability.create_exclusive`, an atomic
  test-and-set on any POSIX filesystem) and renews it from a heartbeat
  thread while the cell simulates.  A lease whose ``renewed`` stamp is
  older than its TTL belongs to a dead (or stalled) runner; any other
  runner may *steal* it — arbitration is an atomic rename, so exactly
  one thief wins.
* **Journal.**  Attempt starts, completions, failures, steals and
  quarantines are appended to a per-sweep CRC-framed journal
  (:mod:`repro.sim.journal`), the one record of what happened to each
  cell: attempts are counted from its ``start`` records.  Results
  themselves live in the
  :class:`~repro.sim.parallel.ResultCache`; a ``done`` record means
  "the cache holds this fingerprint", and the parent verifies that on
  read — a corrupt entry is quarantined and the cell requeued.
* **Resume.**  Because every side effect is an idempotent record keyed
  by cell fingerprint, re-running the same sweep id replays the journal
  and continues exactly where any previous run — crashed, killed or
  completed — left off, with bit-identical final results to a
  single-shot run (cells are deterministic in their inputs; which
  process computes them cannot matter).

The parent process (the :class:`Coordinator`) materializes the pending
cells' traces into the shared trace store (when it is on), exactly as
pool mode does, and is otherwise stateless between polls: it spawns
runners, tails the journal, respawns dead runners while work remains,
and repairs a torn journal tail that no live writer claims
(:meth:`~repro.sim.journal.Journal.truncate`).
Killing it with SIGKILL at any point loses nothing but the in-flight
cells' wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import SweepError
from .chaos import ChaosSchedule, FaultKind, apply_chaos
from .durability import atomic_write, create_exclusive
from .journal import Journal, Record
from .parallel import (
    CellFailure,
    OnError,
    ResultCache,
    SweepCell,
    _attach_trace,
    _format_exception_chain,
    _picklable,
    _publish,
    _run_cell,
    cell_fingerprint,
)
from .results import SimResult

__all__ = [
    "CoordinatorConfig",
    "Coordinator",
    "load_cells",
    "derive_sweep_id",
    "resolve_runners",
    "resolve_lease_ttl",
    "resolve_sweep_id",
]

#: Manifest layout version for ``manifest.json``.
MANIFEST_SCHEMA_VERSION = 1

#: Default seconds before an unrenewed lease may be stolen.
DEFAULT_LEASE_TTL = 30.0

#: Seconds a runner or the parent sleeps when a poll found nothing new.
POLL_INTERVAL = 0.05


@dataclasses.dataclass(frozen=True)
class CoordinatorConfig:
    """Everything that parameterizes a coordinator sweep.

    ``sweep_id=None`` derives a content-addressed id from the cell
    fingerprints, so re-issuing the same sweep automatically resumes
    it.  Sweep state lives under ``<cache>/sweeps`` — sharing the cache
    directory across machines therefore shares the rendezvous too.
    """

    sweep_id: Optional[str] = None
    runners: int = 2
    lease_ttl: float = DEFAULT_LEASE_TTL


def resolve_runners(value: Optional[int] = None) -> Optional[int]:
    """Runner count: explicit value, else ``REPRO_RUNNERS``, else None
    (coordinator mode off).  ``SweepRunner`` rejects a count below 1."""
    if value is None:
        env = os.environ.get("REPRO_RUNNERS")
        if not env:
            return None
        try:
            value = int(env)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_RUNNERS must be an integer, got {env!r}"
            ) from exc
    return int(value)


def resolve_lease_ttl(value: Optional[float] = None) -> float:
    """Lease TTL: explicit value, else ``REPRO_LEASE_TTL``, else 30s."""
    if value is None:
        env = os.environ.get("REPRO_LEASE_TTL")
        if not env:
            return DEFAULT_LEASE_TTL
        try:
            value = float(env)
        except ValueError as exc:
            raise ValueError(
                f"REPRO_LEASE_TTL must be a number, got {env!r}"
            ) from exc
    if value <= 0:
        raise ValueError(f"lease TTL must be positive, got {value}")
    return float(value)


def resolve_sweep_id(value: Optional[str] = None) -> Optional[str]:
    """Sweep id: explicit value, else ``REPRO_SWEEP_ID``, else None
    (derive from content)."""
    if value:
        return value
    return os.environ.get("REPRO_SWEEP_ID") or None


def derive_sweep_id(fingerprints: Sequence[str]) -> str:
    """Content-addressed sweep id: same cells, same id — so re-running
    an identical sweep resumes it instead of starting over."""
    digest = hashlib.sha256(
        "\n".join(sorted(fingerprints)).encode("utf-8")
    )
    return digest.hexdigest()[:12]


def load_cells(sweep_dir: Union[str, Path]) -> List[SweepCell]:
    """The cell list a sweep directory was created for (``--resume``)."""
    path = Path(sweep_dir) / "cells.pkl"
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise SweepError(
            f"cannot resume sweep from {sweep_dir}: no cells.pkl "
            f"({exc}); was this sweep started in coordinator mode?"
        ) from exc
    cells = pickle.loads(data)
    if not isinstance(cells, list):
        raise SweepError(f"corrupt cells.pkl in {sweep_dir}")
    return cells


# --- lease files --------------------------------------------------------

@dataclasses.dataclass
class _Claim:
    path: Path
    token: str
    stolen_from: Optional[str] = None


def _write_lease(path: Path, token: str, ttl: float) -> None:
    atomic_write(
        path,
        json.dumps(
            {"holder": token, "ttl": ttl, "renewed": time.time()}
        ),
        fsync=False,
    )


def _lease_state(path: Path, default_ttl: float):
    """(holder, renewed, ttl) of a lease file; mtime fallback for a
    torn or not-yet-written lease (so a fresh lease is never mistaken
    for an expired one)."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return (
            str(data["holder"]),
            float(data["renewed"]),
            float(data.get("ttl", default_ttl)),
        )
    except (OSError, ValueError, KeyError, TypeError):
        try:
            return "<unreadable>", path.stat().st_mtime, default_ttl
        except OSError:
            return None


def _acquire_lease(
    lease_dir: Path, key: str, token: str, ttl: float
) -> Optional[_Claim]:
    """Claim ``key``: fresh ``O_EXCL`` create, or steal an expired lease.

    A steal atomically renames a fully-written lease *over* the expired
    one, so the path never disappears mid-theft — a third runner cannot
    slip in with a fresh ``O_EXCL`` create and win the cell without a
    steal on record.  Concurrent thieves arbitrate by reading the file
    back: whoever's token is on disk after the renames settle holds the
    lease, everyone else lost.
    """
    path = lease_dir / f"{key}.lease"
    if create_exclusive(path):
        _write_lease(path, token, ttl)
        return _Claim(path, token)
    state = _lease_state(path, ttl)
    if state is None:
        return None  # released between our check and read; next pass
    holder, renewed, holder_ttl = state
    if time.time() - renewed < holder_ttl:
        return None  # live lease
    try:
        _write_lease(path, token, ttl)  # atomic rename-over
    except OSError:
        return None
    winner = _lease_state(path, ttl)
    if winner is None or winner[0] != token:
        return None  # a concurrent thief re-stole it
    return _Claim(path, token, stolen_from=holder)


def _release_lease(claim: _Claim) -> None:
    """Drop a claim we still hold (stolen leases are left to the thief)."""
    state = _lease_state(claim.path, 0.0)
    if state is not None and state[0] not in (claim.token, "<unreadable>"):
        return
    try:
        os.unlink(claim.path)
    except OSError:
        pass


class _Heartbeat:
    """Background lease renewal, four times per TTL, while a cell
    simulates."""

    def __init__(self, claim: _Claim, ttl: float) -> None:
        self._claim = claim
        self._ttl = ttl
        self._interval = ttl / 4.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            state = _lease_state(self._claim.path, self._ttl)
            if state is not None and state[0] != self._claim.token:
                return  # stolen from under us; do not clobber the thief
            try:
                _write_lease(self._claim.path, self._claim.token, self._ttl)
            except OSError:
                return


# --- journal bookkeeping ------------------------------------------------


def _fold(
    settled: Dict[str, Record], starts: Dict[str, int],
    records: List[Record],
) -> None:
    """Apply journal records to the settled map (done/failed add a key,
    requeue removes it) and to ``starts``, the attempt ledger.

    ``starts[key]`` counts ``key``'s ``start`` records since its last
    ``requeue`` with ``reset``; the next attempt is one more.  Attempts
    are counted here and nowhere else.  Other kinds (among them an older
    runner's ``trace`` records) are ignored.
    """
    for record in records:
        kind = record.get("kind")
        key = record.get("fp")
        if not isinstance(key, str):
            continue
        if kind in ("done", "failed"):
            settled[key] = record
        elif kind == "start":
            starts[key] = starts.get(key, 0) + 1
        elif kind == "requeue":
            settled.pop(key, None)
            if record.get("reset"):
                starts.pop(key, None)


# --- the runner process -------------------------------------------------


def _runner_process(
    sweep_dir: str,
    cache_dir: str,
    runner_id: str,
    lease_ttl: float,
    max_attempts: int,
    on_error: str,
    chaos: Optional[ChaosSchedule],
    trace_store_root: Optional[str] = None,
) -> None:
    """Entry point of one independent runner process.

    Loops until every cell is settled, doing four things only: claim a
    cell's lease, attach its trace, simulate it (flushing the result to
    the shared cache), and journal the outcome.  Everything it knows
    comes off the shared directory, so a runner can join, die, or be
    started on another machine at any time.

    Before computing, the lease holder journals a ``start`` record, its
    attempt one more than :func:`_fold` has counted.  With
    ``trace_store_root`` set, the runner attaches the trace the parent
    materialized, as pool workers do (:func:`~repro.sim.parallel.
    _attach_trace`): it never writes the store, and a missing or
    quarantined archive means private regeneration.
    """
    sweep = Path(sweep_dir)
    cells = load_cells(sweep)
    keys = [cell_fingerprint(cell) for cell in cells]
    leaders: List[int] = []
    seen = set()
    for i, key in enumerate(keys):
        if key not in seen:
            seen.add(key)
            leaders.append(i)
    journal = Journal(sweep / "journal.bin")
    lease_dir = sweep / "leases"
    cache = ResultCache(cache_dir)
    token = f"{runner_id}:{os.getpid()}"
    retry = OnError(on_error) is OnError.RETRY

    settled: Dict[str, Record] = {}
    starts: Dict[str, int] = {}
    offset = 0
    quarantines_reported = 0

    def refresh() -> None:
        nonlocal offset
        records, offset, _ = journal.read_from(offset)
        _fold(settled, starts, records)

    def note_quarantines() -> None:
        # Quarantines happen inside this process's cache instance; the
        # journal is how the parent's stats learn about them.
        nonlocal quarantines_reported
        while quarantines_reported < cache.quarantined:
            quarantines_reported += 1
            journal.append({"kind": "quarantine", "runner": runner_id})

    while True:
        refresh()
        todo = [i for i in leaders if keys[i] not in settled]
        if not todo:
            return
        progressed = False
        for i in todo:
            key = keys[i]
            claim = _acquire_lease(lease_dir, key, token, lease_ttl)
            if claim is None:
                continue
            progressed = True
            attempt = 0
            try:
                refresh()
                if key in settled:
                    continue
                if claim.stolen_from is not None:
                    journal.append(
                        {
                            "kind": "steal",
                            "fp": key,
                            "runner": runner_id,
                            "from": claim.stolen_from,
                        }
                    )
                hit = cache.get(key)
                note_quarantines()
                if hit is not None:
                    journal.append(
                        {
                            "kind": "done",
                            "fp": key,
                            "runner": runner_id,
                            "attempt": 0,
                        }
                    )
                    continue
                # Counted by the fold, never here: the next refresh()
                # reads this runner's own start record back.
                attempt = starts.get(key, 0) + 1
                if attempt > max_attempts:
                    journal.append(
                        _failed_record(
                            cells[i], key, runner_id, attempt - 1,
                            "worker-died",
                            f"attempt budget ({max_attempts}) exhausted "
                            "across runners (repeated runner death or "
                            "preemption)",
                        )
                    )
                    continue
                journal.append(
                    {
                        "kind": "start",
                        "fp": key,
                        "runner": runner_id,
                        "attempt": attempt,
                    }
                )
                directive = (
                    chaos.directive_for(cells[i].tag, attempt)
                    if chaos is not None
                    else None
                )
                stale = (
                    directive is not None
                    and directive.kind is FaultKind.STALE_LEASE
                )
                apply_chaos(directive)  # deferred kinds no-op here
                heartbeat = None
                if stale:
                    # Simulate a stalled heartbeat: hold the lease
                    # un-renewed past its TTL while still computing, so
                    # a sibling legitimately steals the cell.
                    time.sleep(2.5 * lease_ttl)
                else:
                    heartbeat = _Heartbeat(claim, lease_ttl)
                    heartbeat.start()
                try:
                    result = _run_cell(
                        cells[i],
                        trace=_attach_trace(cells[i], trace_store_root),
                    )
                finally:
                    if heartbeat is not None:
                        heartbeat.stop()
                _publish(cache, key, result, cells[i], directive)
                if cache.write_disabled:
                    raise SweepError(
                        "coordinator runner cannot write the result "
                        f"cache at {cache.root}; the rendezvous is broken"
                    )
                journal.append(
                    {
                        "kind": "done",
                        "fp": key,
                        "runner": runner_id,
                        "attempt": attempt,
                        "trace": result.trace_source,
                    }
                )
            # Failure accounting happens through the journal, not a
            # typed raise: the error/failed record below is what resume
            # and the supervising coordinator replay.
            except Exception as exc:  # repro-lint: ignore[RPR010] -- failure journaled as error/failed record
                attempt = attempt or 1
                if retry and attempt < max_attempts:
                    journal.append(
                        {
                            "kind": "error",
                            "fp": key,
                            "runner": runner_id,
                            "attempt": attempt,
                            "error": _format_exception_chain(exc),
                        }
                    )
                else:
                    journal.append(
                        _failed_record(
                            cells[i], key, runner_id, attempt, "error",
                            _format_exception_chain(exc),
                            context=dict(
                                getattr(exc, "context", {}) or {}
                            ),
                        )
                    )
            finally:
                _release_lease(claim)
        if not progressed:
            time.sleep(POLL_INTERVAL)


def _failed_record(
    cell: SweepCell,
    key: str,
    runner_id: str,
    attempt: int,
    kind: str,
    error: str,
    context: Optional[dict] = None,
) -> Record:
    return {
        "kind": "failed",
        "fp": key,
        "runner": runner_id,
        "attempt": attempt,
        "fail_kind": kind,
        "error": error,
        "workload": cell.workload.abbr,
        "policy": cell.policy.name,
        "tag": cell.tag,
        "context": context or {},
    }


# --- the parent ---------------------------------------------------------


class Coordinator:
    """Parent-side orchestration of one coordinator sweep.

    Owns the sweep directory (manifest + pickled cells + journal +
    leases), materializes the pending cells' traces through the
    :class:`~repro.sim.parallel.SweepRunner`, spawns and babysits the
    runner processes, and folds journal records into the runner's
    results and stats.  All of its own state is reconstructible from
    the directory, which is what makes the sweep coordinator-crash-safe.
    """

    def __init__(self, config: CoordinatorConfig, runner) -> None:
        self.config = config
        self._runner = runner  # the owning SweepRunner
        self.sweep_id: Optional[str] = config.sweep_id
        self.sweep_dir: Optional[Path] = None

    # - setup -

    def _prepare_dir(
        self, cells: List[SweepCell], keys: List[str], indices: List[int]
    ) -> None:
        """Create (or validate) the sweep directory for these cells."""
        fingerprints = sorted({keys[i] for i in indices})
        if self.sweep_id is None:
            self.sweep_id = derive_sweep_id(fingerprints)
        self.sweep_dir = self._runner.cache.root / "sweeps" / self.sweep_id
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        (self.sweep_dir / "leases").mkdir(exist_ok=True)
        manifest_path = self.sweep_dir / "manifest.json"
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except ValueError:
                manifest = None
            if (
                not isinstance(manifest, dict)
                or manifest.get("schema") != MANIFEST_SCHEMA_VERSION
                or sorted(manifest.get("fingerprints", []))
                != fingerprints
            ):
                raise SweepError(
                    f"sweep id {self.sweep_id!r} at {self.sweep_dir} "
                    "already holds a different sweep; pass a fresh "
                    "--sweep-id (or clear the sweep directory)"
                )
        else:
            atomic_write(
                manifest_path,
                json.dumps(
                    {
                        "schema": MANIFEST_SCHEMA_VERSION,
                        "sweep_id": self.sweep_id,
                        "fingerprints": fingerprints,
                    },
                    indent=2,
                ),
            )
        cells_path = self.sweep_dir / "cells.pkl"
        if not cells_path.exists():
            atomic_write(
                cells_path, pickle.dumps([cells[i] for i in indices])
            )

    # - the run -

    def run(
        self,
        cells: List[SweepCell],
        keys: List[str],
        pending: List[int],
        results: List[Optional[SimResult]],
    ) -> None:
        runner = self._runner
        stats = runner.stats
        cache: ResultCache = runner.cache

        distributed = [i for i in pending if _picklable(cells[i])]
        distributed_set = set(distributed)
        local_only = [i for i in pending if i not in distributed_set]
        # Unpicklable cells cannot cross a process (or machine)
        # boundary; they run in this process, rendezvous through the
        # cache like everything else, and stay out of the manifest.
        for i in local_only:
            hit = cache.get(keys[i])
            if hit is not None:
                results[i] = hit
                stats.cache_hits += 1
            else:
                runner._prepare_traces(cells, [i])
                runner._run_serial(cells, keys, i, results)
        if not distributed:
            return

        self._prepare_dir(cells, keys, distributed)
        assert self.sweep_dir is not None
        journal = Journal(self.sweep_dir / "journal.bin")
        key_to_index = {keys[i]: i for i in distributed}
        pending_keys = set(key_to_index)

        # Replay: adopt completions from previous runs of this sweep,
        # requeue failures and corrupt entries (an explicit resume is a
        # request to try again).
        records, _ = journal.recover()
        settled: Dict[str, Record] = {}
        _fold(settled, {}, records)
        for key, record in settled.items():
            if key not in pending_keys:
                continue
            if record.get("kind") == "done":
                result = cache.get(key)
                if result is not None:
                    results[key_to_index[key]] = result
                    stats.cells_resumed += 1
                    pending_keys.discard(key)
                    continue
                # Entry vanished or failed verification: recompute.  The
                # attempt count survives, so a chaos directive that
                # corrupted attempt N does not fire again on the retry.
                journal.append({"kind": "requeue", "fp": key, "by": "parent"})
                continue
            # A previously *failed* cell: an explicit resume is a request
            # to try again, with a fresh attempt budget.
            journal.append(
                {"kind": "requeue", "fp": key, "by": "parent", "reset": True}
            )
        # Cells this sweep never journaled may still be in the shared
        # cache (another sweep computed them): classify as plain hits
        # and journal the completion so a resume adopts them directly.
        for key in sorted(pending_keys):
            hit = cache.get(key)
            if hit is not None:
                results[key_to_index[key]] = hit
                stats.cache_hits += 1
                pending_keys.discard(key)
                journal.append(
                    {
                        "kind": "done",
                        "fp": key,
                        "runner": "cache",
                        "attempt": 0,
                    }
                )
        if not pending_keys:
            return
        # As in pool mode, the parent materializes each distinct trace
        # once; runners only attach.
        runner._prepare_traces(
            cells, [i for i in distributed if keys[i] in pending_keys]
        )
        self._supervise(journal, cells, key_to_index, pending_keys, results)

    # - supervision loop -

    def _spawn(self, sequence: int) -> multiprocessing.Process:
        # Load the replay modules before forking, so every runner
        # inherits them instead of importing NumPy and the engine itself.
        from . import engine  # noqa: F401

        runner = self._runner
        process = multiprocessing.Process(
            target=_runner_process,
            args=(
                str(self.sweep_dir),
                str(runner.cache.root),
                f"r{sequence}",
                self.config.lease_ttl,
                runner.max_attempts,
                runner.on_error.value,
                runner.chaos,
                runner._store_root,
            ),
            daemon=True,
        )
        process.start()
        return process

    def _supervise(
        self,
        journal: Journal,
        cells: List[SweepCell],
        key_to_index: Dict[str, int],
        pending_keys: set,
        results: List[Optional[SimResult]],
    ) -> None:
        runner = self._runner
        stats = runner.stats
        cache: ResultCache = runner.cache
        offset = journal.size()
        spawned = 0
        respawn_budget = (
            self.config.runners + len(key_to_index) * runner.max_attempts
        )
        children: List[multiprocessing.Process] = []
        torn_since: Optional[float] = None
        try:
            for _ in range(min(self.config.runners, len(pending_keys))):
                children.append(self._spawn(spawned))
                spawned += 1
            while pending_keys:
                records, offset, clean = journal.read_from(offset)
                for record in records:
                    self._apply(
                        record, journal, cells, key_to_index,
                        pending_keys, results, cache, stats,
                    )
                if clean:
                    torn_since = None
                else:
                    # Trailing bytes that never complete: a writer died
                    # mid-append.  No live writer takes anywhere near a
                    # TTL to finish one small write, so after that long
                    # the tail is provably torn — truncate it.
                    now = time.monotonic()
                    if torn_since is None:
                        torn_since = now
                    elif now - torn_since > max(self.config.lease_ttl, 1.0):
                        journal.truncate(offset)
                        torn_since = None
                if not pending_keys:
                    break
                children = [c for c in children if c.is_alive()]
                while (
                    len(children) < self.config.runners
                    and spawned < respawn_budget
                ):
                    children.append(self._spawn(spawned))
                    spawned += 1
                if not children:
                    raise SweepError(
                        f"coordinator sweep {self.sweep_id} stalled: "
                        f"all runners exited after {spawned} spawns with "
                        f"{len(pending_keys)} cell(s) unfinished"
                    )
                if not records:
                    time.sleep(POLL_INTERVAL)
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
            for child in children:
                child.join(timeout=5.0)
                if child.is_alive():
                    child.kill()
                    child.join(timeout=5.0)

    def _apply(
        self,
        record: Record,
        journal: Journal,
        cells: List[SweepCell],
        key_to_index: Dict[str, int],
        pending_keys: set,
        results: List[Optional[SimResult]],
        cache: ResultCache,
        stats,
    ) -> None:
        kind = record.get("kind")
        if kind == "steal":
            stats.leases_stolen += 1
            return
        if kind == "quarantine":
            stats.entries_quarantined += 1
            return
        if kind == "error":
            stats.retries += 1
            return
        key = record.get("fp")
        if not isinstance(key, str) or key not in pending_keys:
            return
        if kind == "done":
            result = cache.get(key)
            if result is None:
                # The entry a runner just wrote failed verification
                # (torn/bit-flipped write): cache.get quarantined it;
                # requeue the cell.  Attempts are *not* reset — the
                # corrupting attempt is spent, so the deterministic
                # chaos schedule moves on and the retry runs clean.
                journal.append(
                    {"kind": "requeue", "fp": key, "by": "parent"}
                )
                return
            results[key_to_index[key]] = result
            if int(record.get("attempt", 0) or 0) > 0:
                stats.simulated += 1
            else:
                stats.cache_hits += 1
            self._runner._count_trace(
                key_to_index[key], record.get("trace")
            )
            pending_keys.discard(key)
            return
        if kind == "failed":
            cell = cells[key_to_index[key]]
            failure = CellFailure(
                fingerprint=key,
                workload=str(record.get("workload", cell.workload.abbr)),
                policy=str(record.get("policy", cell.policy.name)),
                tag=str(record.get("tag", cell.tag)),
                attempts=int(record.get("attempt", 0) or 0),
                kind=str(record.get("fail_kind", "error")),
                error=str(record.get("error", "")),
                context=dict(record.get("context") or {}),
            )
            pending_keys.discard(key)
            if self._runner.on_error is OnError.RAISE:
                raise SweepError(
                    f"sweep cell {key} ({failure.workload}/"
                    f"{failure.policy}) failed ({failure.kind}) on "
                    f"attempt {failure.attempts}: {failure.error}",
                    fingerprint=key,
                    context={
                        "kind": failure.kind,
                        "attempts": failure.attempts,
                        "workload": failure.workload,
                        "policy": failure.policy,
                        "tag": failure.tag,
                    },
                )
            self._runner.stats.failures.append(failure)
