"""Crash-safe sweeps that any number of processes can join.

:class:`~repro.sim.parallel.SweepRunner`'s pool runs a sweep's cells on
worker processes it forks and owns.  In coordinator mode (``--runners
N``) the same pool runs N owned workers with a *rendezvous*: the
:class:`Coordinator` and its sweep directory ``<cache>/sweeps/<id>``,
which holds the manifest, the pickled cells, the journal and the lease
files.  The rendezvous carries fault tolerance past the sweep process
itself: past its death, torn writes and restarts.  Another process, on
this machine or on any machine that shares the cache directory, joins
the sweep by running the same command:

* **Leases.**  Before the pool hands a cell to a worker it claims the
  cell by creating ``leases/<fingerprint>.lease`` with ``O_CREAT |
  O_EXCL`` (:func:`~repro.sim.durability.create_exclusive`, an atomic
  test-and-set on any POSIX filesystem), and renews the lease four
  times per TTL while the attempt runs.  A cell that another live
  process holds is skipped and tried again later.  A lease whose
  ``renewed`` stamp is older than its TTL belongs to a dead (or
  stalled) process, and any other process may *steal* it: arbitration
  is an ``O_EXCL`` marker per expired stamp, so exactly one thief wins.
  A lease is released when its attempt settles and on every exit path.
* **Journal.**  Every record of the pool (``start``, ``done``,
  ``error``, ``failed``, ``steal``, ``quarantine``) is appended to a
  per-sweep CRC-framed journal (:mod:`repro.sim.journal`), and reaches
  ``SweepRunner.records`` only when the pool tails it back, whoever
  wrote it: a cell another process settles settles here too.  Attempts
  are numbered from the ``start`` records of every process and every
  earlier run.  Results themselves live in the
  :class:`~repro.sim.parallel.ResultCache`; a ``done`` record means
  "the cache holds this fingerprint", and every process verifies that
  on read: a corrupt entry is quarantined and the cell requeued.
* **Resume.**  Because every side effect is an idempotent record keyed
  by cell fingerprint, re-running the same sweep id replays the journal
  and continues exactly where any previous run (crashed, killed or
  completed) left off, with bit-identical final results to a
  single-shot run (cells are deterministic in their inputs; which
  process computes them cannot matter).

A sweep alone on its id tails the journal after its own appends and
never polls; while another process holds a cell, the pool also wakes
every :data:`POLL_INTERVAL` to tail the journal and retry the claim.
Killing a sweep process with SIGKILL at any point loses nothing but
its in-flight cells' wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import SweepError
from .durability import atomic_write, create_exclusive
from .journal import Journal, Record
from .parallel import (
    ResultCache,
    SweepCell,
    SweepStats,
    _cache_get,
    _failure_record,
    _picklable,
    _PoolWorker,
    cell_fingerprint,
)
from .results import SimResult

__all__ = [
    "CoordinatorConfig",
    "Coordinator",
    "load_cells",
    "check_sweep_id",
    "derive_sweep_id",
    "resolve_runners",
    "resolve_lease_ttl",
    "resolve_sweep_id",
]

#: Manifest layout version for ``manifest.json``.
MANIFEST_SCHEMA_VERSION = 1

#: Default seconds before an unrenewed lease may be stolen.
DEFAULT_LEASE_TTL = 30.0

#: Seconds between claims of a cell that another process holds.
POLL_INTERVAL = 0.05

#: A sweep id is one plain name: it names a directory under
#: ``<cache>/sweeps``, never a path.
_SWEEP_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclasses.dataclass(frozen=True)
class CoordinatorConfig:
    """Everything that parameterizes a coordinator sweep.

    ``runners`` is the number of workers this process owns.
    ``sweep_id=None`` derives a content-addressed id from the cell
    fingerprints, so re-issuing the same sweep automatically resumes
    or joins it; an id given here is a plain name
    (:func:`check_sweep_id`).  Sweep state lives under
    ``<cache>/sweeps`` — sharing the cache directory across machines
    therefore shares the rendezvous too.
    """

    sweep_id: Optional[str] = None
    runners: int = 2
    lease_ttl: float = DEFAULT_LEASE_TTL


def resolve_runners(value: Optional[int] = None) -> Optional[int]:
    """Worker count of coordinator mode: explicit value, else
    ``REPRO_RUNNERS``, else None (coordinator mode off).
    ``SweepRunner`` rejects a count below 1."""
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
    """Lease TTL: explicit value, else ``REPRO_LEASE_TTL``, else 30s.

    It must be positive and finite: a NaN TTL makes every lease look
    expired, and an infinite one never lets a dead process's cell go."""
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
    if not 0 < value < math.inf:
        raise ValueError(
            "--lease-ttl/REPRO_LEASE_TTL must be positive and finite, "
            f"got {value}"
        )
    return float(value)


def check_sweep_id(value: str) -> str:
    """``value``, when it is one plain name; else ``ValueError``.  A
    path (``../x``, ``/abs/dir``) would put the sweep directory outside
    ``<cache>/sweeps``."""
    if not _SWEEP_ID.fullmatch(value):
        raise ValueError(
            "a sweep id (--sweep-id, --resume or REPRO_SWEEP_ID) must be "
            f"one plain name matching {_SWEEP_ID.pattern}, got {value!r}"
        )
    return value


def resolve_sweep_id(value: Optional[str] = None) -> Optional[str]:
    """Sweep id: explicit value, else ``REPRO_SWEEP_ID``, else None
    (derive from content); a given id must pass :func:`check_sweep_id`."""
    value = value or os.environ.get("REPRO_SWEEP_ID")
    return check_sweep_id(value) if value else None


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
    try:
        cells = pickle.loads(data)
    # Unpickling damaged bytes can raise nearly any exception type.
    except Exception as exc:
        raise SweepError(
            f"cannot resume sweep from {sweep_dir}: unreadable cells.pkl "
            f"({type(exc).__name__}: {exc})"
        ) from exc
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
    one, so the path never disappears mid-theft — a third process cannot
    slip in with a fresh ``O_EXCL`` create and win the cell without a
    steal on record.  Concurrent thieves of one expired lease arbitrate
    by ``O_EXCL``-creating a marker named for its ``renewed`` stamp:
    exactly one creates it, however their reads and renames interleave.
    A marker older than a TTL over a lease that still shows that stamp
    was left by a thief that died before its rename; thieves then
    compete the same way for a successor named for the marker's mtime.
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
    marker = lease_dir / f"{key}.{renewed!r}.steal"
    while not create_exclusive(marker):
        try:
            orphaned = marker.stat().st_mtime
        except OSError:
            return None  # a failed thief just dropped it; next pass
        if time.time() - orphaned < ttl or _lease_state(path, ttl) != state:
            return None  # another thief took this expired lease
        marker = lease_dir / f"{marker.stem}.{orphaned!r}.steal"
    try:
        _write_lease(path, token, ttl)  # atomic rename-over
    except OSError:
        try:
            marker.unlink()  # the next thief need not wait out a TTL
        except OSError:
            pass
        return None
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


def _renew_lease(claim: _Claim, ttl: float) -> bool:
    """Renew a lease we still hold; False once it was stolen from us (a
    thief's lease is never clobbered) or cannot be written."""
    state = _lease_state(claim.path, ttl)
    if state is not None and state[0] != claim.token:
        return False
    try:
        _write_lease(claim.path, claim.token, ttl)
    except OSError:
        return False
    return True




# --- the rendezvous -----------------------------------------------------


class Coordinator:
    """One process's side of a coordinator sweep: the rendezvous
    :meth:`~repro.sim.parallel.SweepRunner._run_pool` schedules with.

    :meth:`run` sets up (or validates) the sweep directory, adopts what
    earlier runs finished, materializes the pending cells' traces and
    hands the rest to the pool, which forks its workers through
    :meth:`_spawn`, claims each attempt through :meth:`claim`, journals
    through :meth:`append`, settles cells through :meth:`tail` and
    keeps its leases with :meth:`renew` and :meth:`release`.  All of
    this process's state is reconstructible from the directory, which
    is what makes the sweep crash-safe.
    """

    def __init__(self, config: CoordinatorConfig, runner) -> None:
        self.config = config
        self._runner = runner  # the owning SweepRunner
        self.sweep_id: Optional[str] = config.sweep_id
        self.sweep_dir: Optional[Path] = None
        #: names this process in its leases and journal records
        self.token = f"{os.uname().nodename}:{os.getpid()}"
        #: the fold of the whole journal, every process and earlier run
        #: included: its ``starts`` number the attempts
        self.ledger = SweepStats()
        #: pool index -> the lease this process holds for that cell
        self.claims: Dict[int, _Claim] = {}
        #: when the held leases are next renewed (``time.monotonic``)
        self.renew_at = 0.0

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
        cache: ResultCache = runner.cache

        distributed = [i for i in pending if _picklable(cells[i])]
        distributed_set = set(distributed)
        local_only = [i for i in pending if i not in distributed_set]
        # Unpicklable cells cannot cross a process (or machine)
        # boundary; they run in this process, rendezvous through the
        # cache like everything else, and stay out of the manifest.
        for i in local_only:
            hit = _cache_get(cache, keys[i], runner._record)
            if hit is not None:
                runner._cached("hit", keys[i], results, i, hit)
            else:
                runner._prepare_traces(cells, keys, [i])
                runner._run_serial(cells, keys, i, results)
        if not distributed:
            return

        self._prepare_dir(cells, keys, distributed)
        assert self.sweep_dir is not None
        journal = self.journal = Journal(self.sweep_dir / "journal.bin")
        self.lease_dir = self.sweep_dir / "leases"
        self._cells, self._keys, self._results = cells, keys, results
        self._index = {keys[i]: i for i in distributed}
        pending_keys = set(self._index)

        # Replay: adopt completions from previous runs of this sweep,
        # requeue failures and corrupt entries (an explicit resume is a
        # request to try again).  The tail starts where this read ends.
        records, offset, clean = journal.read_from(0)
        if not clean:  # a writer died mid-append
            journal.truncate(offset)
        self.offset = offset
        self.ledger = SweepStats.fold(records)
        for key, record in self.ledger.settled.items():
            if key not in pending_keys:
                continue
            if record.get("kind") == "done":
                result = _cache_get(cache, key, runner._record)
                if result is not None:
                    runner._cached(
                        "resumed", key, results, self._index[key], result
                    )
                    pending_keys.discard(key)
                    continue
                # Entry vanished or failed verification: recompute.  The
                # attempt count survives, so a chaos directive that
                # corrupted attempt N does not fire again on the retry.
                self.append({"kind": "requeue", "fp": key})
                continue
            # A previously *failed* cell: an explicit resume is a request
            # to try again, with a fresh attempt budget.
            self.append({"kind": "requeue", "fp": key, "reset": True})
        # Cells this sweep never journaled may still be in the shared
        # cache (another sweep computed them): classify as plain hits
        # and journal the completion so a resume adopts them directly.
        for key in sorted(pending_keys):
            hit = _cache_get(cache, key, runner._record)
            if hit is not None:
                runner._cached("hit", key, results, self._index[key], hit)
                pending_keys.discard(key)
                self.append({"kind": "done", "fp": key, "attempt": 0})
        if not pending_keys:
            return
        indices = [i for i in distributed if keys[i] in pending_keys]
        # As in pool mode, this process materializes each distinct trace
        # once; its workers only attach.
        runner._prepare_traces(cells, keys, indices)
        self.renew_at = time.monotonic() + self.config.lease_ttl / 4
        runner._run_pool(cells, keys, indices, results, rendezvous=self)

    # - what the pool calls -

    def _spawn(self) -> _PoolWorker:
        """Fork one owned worker for the pool."""
        runner = self._runner
        return _PoolWorker(runner._store_root, runner.telemetry)

    def append(self, record: Record) -> None:
        """Journal one record of this process; :meth:`tail` folds it.

        A ``done`` record means the cache holds the cell, so once the
        cache stops taking writes the rendezvous is broken.
        """
        cache = self._runner.cache
        if cache.write_disabled:
            raise SweepError(
                f"coordinator mode cannot write the result cache at "
                f"{cache.root}; the rendezvous is broken"
            )
        self.journal.append({**record, "runner": self.token})

    def tail(self) -> None:
        """Fold every record appended since the last tail, by any
        process, into the ledger and the runner's records, and settle
        each cell a record settles; until the journal has nothing new,
        since settling a ``done`` can requeue its cell."""
        runner = self._runner
        while True:
            records, self.offset, _ = self.journal.read_from(self.offset)
            if not records:
                return
            for record in records:
                self.ledger.apply(record)
                if runner._record(record):
                    self._adopt(record)

    def _adopt(self, record: Record) -> None:
        """Settle the cell of a record that settled it in the fold: its
        failure, or the result a ``done`` names, read back and verified."""
        runner = self._runner
        key = str(record["fp"])
        result = None
        if record["kind"] == "done":
            result = _cache_get(runner.cache, key, self.append)
            if result is None:
                # The entry failed verification (torn/bit-flipped write)
                # and cache.get quarantined it: requeue the cell, which
                # undoes this ``done`` in the fold once read back.
                # Attempts are *not* reset — the corrupting attempt is
                # spent, so the deterministic chaos schedule moves on
                # and the retry runs clean.
                self.append({"kind": "requeue", "fp": key})
                return
        runner._settle(record, self._results, self._index[key], result)

    def claim(self, index: int) -> Optional[int]:
        """Claim the cell at ``index`` for an attempt; the attempt
        number, or None when this process does not start it now.

        A cell that another live process holds gives None and stays
        open.  After the claim the journal is tailed: a cell that
        settled meanwhile is dropped, one found in the cache is
        journaled ``done`` at attempt 0, and one whose ``start``
        records spent its attempt budget without an outcome (their
        processes died) settles as one ``worker-died`` failure.
        """
        runner = self._runner
        key = self._keys[index]
        lease = _acquire_lease(
            self.lease_dir, key, self.token, self.config.lease_ttl
        )
        if lease is None:
            return None
        self.claims[index] = lease
        self.tail()
        attempt: Optional[int] = self.ledger.starts.get(key, 0) + 1
        if key in runner.stats.settled:
            attempt = None
        else:
            if lease.stolen_from is not None:
                self.append({"kind": "steal", "fp": key,
                             "from": lease.stolen_from})
            if _cache_get(runner.cache, key, self.append) is not None:
                self.append({"kind": "done", "fp": key, "attempt": 0})
                attempt = None
            elif attempt > runner.max_attempts:
                self.append(_failure_record(
                    "failed", self._cells[index], key, attempt - 1,
                    "worker-died",
                    f"attempt budget ({runner.max_attempts}) exhausted: "
                    f"attempt {attempt - 1} started and left no outcome "
                    "(its process died)",
                ))
                attempt = None
        if attempt is None:
            self.release(index)
            self.tail()
        return attempt

    def renew(self) -> None:
        """Renew every held lease once a quarter TTL has passed since
        the last renewal; :func:`_renew_lease` never renews one that
        was stolen."""
        now = time.monotonic()
        if now < self.renew_at:
            return
        self.renew_at = now + self.config.lease_ttl / 4
        for lease in self.claims.values():
            _renew_lease(lease, self.config.lease_ttl)

    def release(self, index: Optional[int] = None) -> None:
        """Release the lease held for ``index``, or with None all of
        them (the pool's exit path)."""
        for i in list(self.claims) if index is None else [index]:
            lease = self.claims.pop(i, None)
            if lease is not None:
                _release_lease(lease)
