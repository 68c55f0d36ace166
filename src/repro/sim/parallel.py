"""Parallel sweep execution with caching and fault tolerance.

Every figure/table experiment expands into independent (workload,
policy, config) *cells*; nothing in the simulator couples one cell to
another, so a sweep is embarrassingly parallel and — because every cell
is deterministic in its inputs — perfectly cacheable.

:class:`SweepRunner` is the single entry point the experiments, the CLI
and the report script share:

* cells execute on worker processes the runner forks and owns (count
  from ``--jobs``/``REPRO_JOBS``/CPU count), one attempt per worker at
  a time; ``jobs=1`` without a cell timeout, and cells whose policy
  does not pickle, run in-process instead;
* results are stored in an on-disk cache (``REPRO_CACHE_DIR`` or
  ``~/.cache/repro``) keyed by a stable SHA-256 fingerprint of the
  workload spec, the policy name+parameters, the :class:`GPUConfig`, the
  :class:`TimingParams`, the interleave/remote-cache/seed knobs and a
  schema version — change any input and the key changes, so stale
  entries can never be returned for new inputs;
* identical cells within one batch are deduplicated (simulated once).

Cells run with a fixed seed regardless of scheduling order, so serial,
parallel and cached executions of the same sweep produce identical
:class:`SimResult` lists — the invariant ``tests/test_parallel_runner.py``
pins down.

**Fault tolerance.**  Long sweep campaigns must survive partial failure,
not just run fast:

* each pooled attempt, the last one included, runs in a worker under
  a per-cell timeout (``cell_timeout`` / ``REPRO_CELL_TIMEOUT`` /
  ``--cell-timeout``); at the deadline only the hung worker is killed
  and replaced, and the timeout is recorded at once;
* a worker's death and a timeout are *transient* failures of the one
  attempt that worker held: they are retried with deterministic
  exponential backoff and jitter up to ``max_attempts``, and a cell
  waiting out its backoff holds back no other cell;
* the ``on_error`` policy decides what a failing cell does to the sweep:
  ``raise`` aborts with a :class:`SweepError` naming the cell
  fingerprint (the seed behaviour), ``skip`` records a
  :class:`CellFailure` and moves on, ``retry`` additionally retries
  deterministic in-cell errors before recording the failure;
* completed cells are flushed to the result cache the moment they
  finish — a crash, an abort, or a ``KeyboardInterrupt`` mid-sweep never
  discards finished work;
* fault injection for all of the above is provided by the deterministic
  chaos harness in :mod:`repro.sim.chaos`.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import pickle
import random
import shutil
import threading
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..arch.address import InterleavePolicy
from ..config import GPUConfig, baseline_config
from ..errors import SweepError
from ..policies.contract import CAPABILITY_FLAGS
from ..trace.suite import workload_by_name
from ..trace.workload import Trace, WorkloadSpec
from .chaos import ChaosDirective, ChaosSchedule, FaultKind, apply_chaos
from .durability import DurableDir, EntryCorrupt, atomic_write, corrupt_file
from .durability import frame_entry, parse_entry
from .results import SimResult
from .runner import resolve_policy, run_workload
from .telemetry import telemetry_enabled_by_env
from .timing import TimingParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from multiprocessing.connection import Connection

    from ..surrogate.active import SurrogateConfig
    from ..trace.store import TraceStore
    from .coordinator import CoordinatorConfig
    from .journal import Record

#: Bump when the cache entry layout or :meth:`SimResult.to_dict` schema
#: changes; old entries then miss and are re-simulated.  v2: SimResult
#: gained ``faults_dropped``.  v3: SimResult gained ``telemetry``
#: (always stored as None — see :meth:`SweepRunner._complete`).
#: v4: entries switched to the checksummed header+payload framing of
#: :mod:`repro.sim.durability` (torn writes detected and quarantined).
CACHE_SCHEMA_VERSION = 4

_PRIMITIVES = (bool, int, float, str, type(None))


@dataclasses.dataclass
class SweepCell:
    """One independent simulation: everything :func:`run_workload` takes.

    ``workload`` and ``policy`` accept the same strings ``run_workload``
    does (suite abbreviations, policy names); they are resolved eagerly
    so the fingerprint always reflects the concrete spec and parameters.
    """

    workload: Union[str, WorkloadSpec]
    policy: object
    config: Optional[GPUConfig] = None
    interleave: InterleavePolicy = InterleavePolicy.NUMA_AWARE
    remote_cache: Optional[str] = None
    seed: int = 7
    #: None means the default TimingParams(), constructed per cell in
    #: ``__post_init__`` so cells never share a mutable default instance
    timing: Optional[TimingParams] = None
    #: free-form label for the caller (ignored by the fingerprint); also
    #: the key the chaos harness injects faults by
    tag: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            self.workload = workload_by_name(self.workload)
        self.policy = resolve_policy(self.policy)
        if self.timing is None:
            self.timing = TimingParams()


def _jsonable(value: Any) -> Any:
    """Canonical JSON-compatible form of fingerprint inputs."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, _PRIMITIVES):
        return value
    return repr(value)


def policy_fingerprint(policy) -> dict:
    """Stable description of a policy: name, class, and parameters.

    Parameters are the instance's public primitive attributes (captured
    at cell-construction time, before ``attach`` binds runtime state)
    plus the behaviour flags the engine reads off the policy.
    """
    params = {}
    for key, value in vars(policy).items():
        if key.startswith("_") or key in ("machine", "workload", "name"):
            continue
        if isinstance(value, _PRIMITIVES) or isinstance(value, enum.Enum):
            params[key] = _jsonable(value)
    for flag, _ in CAPABILITY_FLAGS:
        params[flag] = _jsonable(getattr(policy, flag))
    return {
        "name": policy.name,
        "class": type(policy).__name__,
        "params": params,
    }


def cell_fingerprint(cell: SweepCell) -> str:
    """Content hash of every input that determines the cell's result.

    The replay engine (staged/batched, ``REPRO_ENGINE``) is
    deliberately **not** part of the fingerprint: both engines are
    bit-identical on ``to_dict`` (the cached payload) — asserted by the
    golden-cell and differential-fuzz suites — so a result computed
    under either engine may stand in for the other.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "workload": _jsonable(cell.workload),
        "policy": policy_fingerprint(cell.policy),
        "config": _jsonable(cell.config) if cell.config is not None else None,
        "interleave": _jsonable(cell.interleave),
        "remote_cache": cell.remote_cache,
        "seed": cell.seed,
        "timing": _jsonable(cell.timing),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` or the conventional ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache(DurableDir):
    """Content-addressed on-disk store of :class:`SimResult` entries.

    Entries are checksummed (header line carrying length + CRC32 ahead
    of the JSON payload, written via :func:`~repro.sim.durability.
    atomic_write`) and verified on every read: a torn, truncated or
    bit-flipped entry is *quarantined* — moved to ``<root>/corrupt/``
    with one warning — and reported as a miss, so corruption is
    recomputed instead of crashing a sweep or silently poisoning it.

    Storage failures never fail the sweep: the first ``OSError`` on a
    write (read-only cache dir, disk full) emits one warning and flips
    the cache to read-only degraded mode for the rest of the run —
    simulations keep their results, they just stop being persisted.
    Both rules are :class:`~repro.sim.durability.DurableDir`'s.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        super().__init__(
            root if root is not None else default_cache_dir(),
            name="result cache",
            unwritable="caching disabled for the rest of this run",
            artifact="result-cache entry",
        )

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for ``key``, or None.

        Old-schema entries are plain misses; entries failing checksum
        or decode verification are quarantined misses.
        """
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            header, payload = parse_entry(data)
        except EntryCorrupt as exc:
            # Pre-v4 entries were a single JSON document with no header
            # line; recognise them as a schema miss, not corruption.
            if self._is_legacy_entry(data):
                return None
            self.quarantine(path, str(exc))
            return None
        if header.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        try:
            return SimResult.from_dict(json.loads(payload.decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            # The checksum passed but the payload does not decode: the
            # entry lies about itself — quarantine rather than trust it.
            self.quarantine(path, f"undecodable payload: {exc}")
            return None

    @staticmethod
    def _is_legacy_entry(data: bytes) -> bool:
        try:
            entry = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return False
        return isinstance(entry, dict) and "schema" in entry

    def iter_results(self) -> "Iterator[Tuple[str, SimResult]]":
        """Yield ``(fingerprint, result)`` for every readable entry.

        It walks the store in sorted (deterministic) order, decoding
        each entry via :meth:`get` — so legacy/old-schema entries are
        silently skipped and corrupt entries are quarantined, never
        raised.  Entries already moved to ``corrupt/`` are outside the
        ``??/*.json`` layout and are not visited at all.
        """
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("??/*.json")):
            result = self.get(path.stem)
            if result is not None:
                yield path.stem, result

    def put(self, key: str, result: SimResult) -> None:
        """Store ``result`` durably (checksummed, tmp + fsync + rename).

        A failed write degrades the cache (see class docstring) instead
        of raising.  Only genuine :class:`SimResult` instances are
        accepted: a :class:`~repro.surrogate.results.PredictedResult`
        (or anything else) raises ``TypeError`` — predictions must never
        be persisted as if an engine produced them
        (``tests/test_surrogate.py`` holds this guard).
        """
        if not isinstance(result, SimResult):
            raise TypeError(
                "ResultCache.put stores exact simulation results only; "
                f"got {type(result).__name__} (predicted or foreign "
                "results must never enter the cache)"
            )
        payload = json.dumps(result.to_dict()).encode("utf-8")
        entry = frame_entry({"schema": CACHE_SCHEMA_VERSION}, payload)
        self.write(atomic_write, self.path_for(key), entry)

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("??/*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for sub in self.root.iterdir():
                if sub.is_dir():
                    shutil.rmtree(sub, ignore_errors=True)
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))


class OnError(str, enum.Enum):
    """What a failing cell does to the rest of the sweep."""

    #: abort the sweep with :class:`SweepError` once a cell fails for
    #: good (completed cells stay cached)
    RAISE = "raise"
    #: record a :class:`CellFailure` and continue
    SKIP = "skip"
    #: like ``skip`` but deterministic in-cell errors are retried too
    RETRY = "retry"


def resolve_on_error(value: Union[str, OnError, None]) -> OnError:
    """Coerce CLI/env spellings to :class:`OnError`."""
    if value is None:
        return OnError.RAISE
    if isinstance(value, OnError):
        return value
    try:
        return OnError(str(value).lower())
    except ValueError:
        choices = ", ".join(p.value for p in OnError)
        raise ValueError(
            f"on_error must be one of {choices}, got {value!r}"
        ) from None


def resolve_cell_timeout(value: Optional[float] = None) -> Optional[float]:
    """Per-cell timeout: explicit value, else ``REPRO_CELL_TIMEOUT``.

    ``None`` or a non-positive value means no timeout.
    """
    if value is None:
        env = os.environ.get("REPRO_CELL_TIMEOUT")
        if env:
            try:
                value = float(env)
            except ValueError as exc:
                raise ValueError(
                    f"REPRO_CELL_TIMEOUT must be a number, got {env!r}"
                ) from exc
    if value is not None and value <= 0:
        return None
    return value


@dataclasses.dataclass
class CellFailure:
    """Post-mortem record of one cell that never produced a result."""

    fingerprint: str
    workload: str
    policy: str
    tag: str
    attempts: int
    #: ``error`` (the cell raised), ``timeout`` (killed past the
    #: deadline) or ``worker-died`` (its process exited underneath it)
    kind: str
    #: compact exception chain, outermost first
    error: str
    #: structured context of the final exception, when it carried one
    context: Dict[str, object] = dataclasses.field(default_factory=dict)
    wall_seconds: float = 0.0

    @classmethod
    def from_record(cls, record: Record) -> "CellFailure":
        """The failure a ``failed`` record describes, in every mode."""
        return cls(
            fingerprint=str(record["fp"]),
            workload=str(record.get("workload", "")),
            policy=str(record.get("policy", "")),
            tag=str(record.get("tag", "")),
            attempts=int(record.get("attempt", 0) or 0),
            kind=str(record.get("fail_kind", "error")),
            error=str(record.get("error", "")),
            context=dict(record.get("context") or {}),
            wall_seconds=float(record.get("wall", 0.0)),
        )

    def summary(self) -> str:
        return (
            f"{self.workload}/{self.policy} [{self.fingerprint[:12]}] "
            f"{self.kind} after {self.attempts} attempt(s): {self.error}"
        )


def _may_retry(
    on_error: OnError, attempt: int, max_attempts: int, *, transient: bool
) -> bool:
    """Whether a failed ``attempt`` gets another, in every mode: a
    transient failure (a worker or runner died, a timeout) under every
    policy, an error the cell raised only under ``retry``."""
    return attempt < max_attempts and (transient or on_error is OnError.RETRY)


def _failure_record(
    kind: str, cell: SweepCell, key: str, attempt: int, fail_kind: str,
    exc: Union[BaseException, str], **extra: object,
) -> Record:
    """An ``error`` (the cell gets another attempt) or ``failed`` (it
    does not) record for one failed attempt."""
    return {
        "kind": kind,
        "fp": key,
        "attempt": attempt,
        "fail_kind": fail_kind,
        "error": exc if isinstance(exc, str) else _format_exception_chain(exc),
        "workload": cell.workload.abbr,
        "policy": cell.policy.name,
        "tag": cell.tag,
        "context": dict(getattr(exc, "context", {}) or {}),
        **extra,
    }


def _format_exception_chain(exc: BaseException) -> str:
    """``TypeError: x <- ValueError: y`` — outermost cause first."""
    parts = []
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return " <- ".join(parts)


#: A per-fingerprint ledger of the fold, outside equality.
_ledger = functools.partial(
    dataclasses.field, default_factory=dict, init=False, compare=False,
    repr=False,
)


@dataclasses.dataclass
class SweepStats:
    """Sweep accounting: a pure fold over per-cell records.

    Every mode records each cell event as a dict with a ``kind`` and the
    cell fingerprint ``fp``; DESIGN.md section 10 ("Sweep accounting")
    lists the kinds and what each counter folds.  The same fold gives
    coordinator runners their settled set and attempt ledger.  Only
    ``wall_seconds`` is measured, not folded.
    """

    cells: int = 0
    simulated: int = 0
    cache_hits: int = 0
    deduped: int = 0
    retries: int = 0
    timeouts: int = 0
    #: cells recovered from a coordinator sweep journal on resume
    #: (their results were completed by a previous — possibly killed —
    #: run and verified in the cache)
    cells_resumed: int = 0
    #: expired leases taken over from dead or stalled runners
    leases_stolen: int = 0
    #: corrupt cache entries moved to ``corrupt/`` and recomputed
    entries_quarantined: int = 0
    #: distinct traces built and written into the shared trace store
    traces_materialized: int = 0
    #: cells that replayed a store-attached (mmap, zero-copy) trace
    #: instead of regenerating it privately
    traces_attached: int = 0
    #: arena bytes those attached cells did *not* hold privately —
    #: each attach shares the store archive's pages instead of owning
    #: a copy, so this is the memory the store saved
    trace_bytes_shared: int = 0
    #: grid cells answered by the surrogate model (a
    #: :class:`~repro.surrogate.results.PredictedResult`) instead of an
    #: exact simulation
    cells_predicted: int = 0
    #: active-sampling fit/eliminate rounds across surrogate sweeps
    surrogate_rounds: int = 0
    wall_seconds: float = dataclasses.field(default=0.0, compare=False)
    failures: List[CellFailure] = dataclasses.field(default_factory=list)
    #: fingerprint -> the record that settled it, until a ``queued``
    #: (a new batch) or ``requeue`` record reopens it
    settled: Dict[str, Record] = _ledger()
    #: fingerprint -> the attempt last started since it was queued or
    #: requeued with ``reset``; the next attempt is one more
    starts: Dict[str, int] = _ledger()
    #: fingerprint -> arena bytes of its trace in the store
    trace_bytes: Dict[str, int] = _ledger()

    @classmethod
    def fold(cls, records: Iterable[Record]) -> "SweepStats":
        """The counters ``records`` add up to, in order."""
        stats = cls()
        for record in records:
            stats.apply(record)
        return stats

    def apply(self, record: Record) -> bool:
        """Fold one record in; True when it settled its cell.

        A cell settles on its first ``done``, ``failed``, ``hit`` or
        ``resumed`` record (a stolen lease's first holder may finish
        too); ``requeue`` takes back what the settling record counted.
        """
        kind = record.get("kind")
        key = str(record.get("fp"))
        if kind in ("error", "failed"):
            self.timeouts += record.get("fail_kind") == "timeout"
        if kind == "queued":
            self.cells += 1
            if record.get("dup"):
                self.deduped += 1
            else:
                self.settled.pop(key, None)
                self.starts.pop(key, None)
        elif kind == "start":
            attempt = int(record.get("attempt", 1) or 1)
            self.retries += attempt > 1
            self.starts[key] = attempt
        elif kind == "materialized":
            self.trace_bytes[key] = int(record.get("bytes", 0) or 0)
            self.traces_materialized += bool(record.get("created"))
        elif kind == "steal":
            self.leases_stolen += 1
        elif kind == "quarantine":
            self.entries_quarantined += 1
        elif kind == "predicted":
            self.cells_predicted += len(record.get("fps") or ())
            self.surrogate_rounds += int(record.get("rounds", 0) or 0)
        elif kind == "requeue":
            prior = self.settled.pop(key, None)
            if prior is not None:
                self._count(prior, -1)
            if record.get("reset"):
                self.starts.pop(key, None)
        elif kind in ("done", "failed", "hit", "resumed") and (
            key not in self.settled
        ):
            self.settled[key] = record
            self._count(record, 1)
            return True
        return False

    def _count(self, record: Record, sign: int) -> None:
        """Add (``sign`` 1) or take back (-1) a settling record."""
        kind = record["kind"]
        if kind == "failed":
            failure = CellFailure.from_record(record)
            if sign > 0:
                self.failures.append(failure)
            else:
                self.failures.remove(failure)
        elif kind == "resumed":
            self.cells_resumed += sign
        elif kind == "hit" or not record.get("attempt"):
            self.cache_hits += sign
        else:
            self.simulated += sign
            if record.get("trace") == "store":
                self.traces_attached += sign
                self.trace_bytes_shared += sign * self.trace_bytes.get(
                    str(record["fp"]), 0
                )

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.cells if self.cells else 0.0

    def summary_line(self) -> str:
        parts = [
            f"{self.cells} cells",
            f"{self.simulated} simulated",
            f"{self.cache_hits} cache hits ({100.0 * self.hit_ratio:.1f}%)",
        ]
        if self.deduped:
            parts.append(f"{self.deduped} deduped")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.cells_resumed:
            parts.append(f"{self.cells_resumed} resumed from journal")
        if self.leases_stolen:
            parts.append(f"{self.leases_stolen} leases stolen")
        if self.entries_quarantined:
            parts.append(f"{self.entries_quarantined} quarantined")
        if self.cells_predicted:
            parts.append(
                f"{self.cells_predicted} predicted "
                f"({self.surrogate_rounds} surrogate rounds)"
            )
        if self.traces_materialized or self.traces_attached:
            parts.append(f"{self.traces_materialized} traces materialized")
            parts.append(
                f"{self.traces_attached} attached "
                f"({self.trace_bytes_shared / 1e6:.1f} MB shared)"
            )
        if self.failures:
            parts.append(f"{self.failed} failed")
        parts.append(f"{self.wall_seconds:.1f}s wall")
        return "[sweep] " + ", ".join(parts)


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit value, else ``REPRO_JOBS``, else CPU count.

    A count below 1 is a usage error, not a request for serial mode.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if not env:
            return os.cpu_count() or 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(
                f"--jobs/REPRO_JOBS must be an integer, got {env!r}"
            ) from exc
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"--jobs/REPRO_JOBS must be at least 1, got {jobs}")
    return jobs


def _run_cell(
    cell: SweepCell, trace: Optional[Trace] = None, telemetry: bool = False
) -> SimResult:
    """Execute one cell in the current process."""
    return run_workload(
        cell.workload,
        cell.policy,
        cell.config,
        interleave=cell.interleave,
        remote_cache=cell.remote_cache,
        seed=cell.seed,
        timing=cell.timing,
        telemetry=telemetry,
        trace=trace,
    )


def _trace_inputs(cell: SweepCell) -> Tuple[WorkloadSpec, int, int]:
    """``(workload, num_chiplets, seed)``, all a cell's trace depends on."""
    config = cell.config if cell.config is not None else baseline_config()
    return cell.workload, config.num_chiplets, cell.seed


def _attach_trace(
    cell: SweepCell, store_root: Optional[str]
) -> Optional[Trace]:
    """The cell's trace attached zero-copy from the store at
    ``store_root``, or None: pool workers, serial attempts and
    coordinator runners all attach here and never write the store.  On
    a miss (store off, archive missing or quarantined) the engine
    regenerates the trace privately, so the store can only make a cell
    cheaper, never break it."""
    if store_root is None:
        return None
    from ..trace.store import TraceStore, trace_fingerprint

    return TraceStore(store_root).attach(
        trace_fingerprint(*_trace_inputs(cell))
    )


def _run_cell_worker(
    cell: SweepCell,
    directive: Optional[ChaosDirective] = None,
    in_process: bool = False,
    store_root: Optional[str] = None,
    telemetry: bool = False,
) -> SimResult:
    """One attempt, in a pool worker or in-process, with optional chaos
    injection; the trace comes from :func:`_attach_trace`."""
    apply_chaos(directive, in_process=in_process)
    return _run_cell(
        cell, trace=_attach_trace(cell, store_root), telemetry=telemetry
    )


def _exit_with_parent(parent: int) -> None:
    """End this process once ``parent`` is no longer its parent."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _pool_worker(
    conn: "Connection", store_root: Optional[str], telemetry: bool
) -> None:
    """Entry point of one owned pool worker.

    Runs each ``(cell, directive)`` attempt the parent sends until the
    ``None`` stop message, and answers ``(result, None)``, or
    ``(exc, text)`` when the attempt raised: ``text`` is the exception
    chain, formatted here because pickling drops ``__cause__`` and
    ``__context__``.  An exception that does not pickle and rebuild, or
    a result that does not pickle, goes back as ``(None, text)``.

    A daemon thread ends the worker, busy or idle, within half a second
    of its parent's death: a killed parent never stops its workers, and
    no EOF reaches them, since later forks hold copies of the parent's
    pipe ends.
    """
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), daemon=True
    ).start()
    for cell, directive in iter(conn.recv, None):
        try:
            result = _run_cell_worker(
                cell, directive, store_root=store_root, telemetry=telemetry
            )
            reply = (result, None)
        except Exception as exc:  # repro-lint: ignore[RPR010] -- sent back; the parent records the failed attempt
            reply = (exc, _format_exception_chain(exc))
        try:
            if reply[1] is not None:
                pickle.loads(pickle.dumps(reply[0]))
            conn.send(reply)
        except (pickle.PickleError, TypeError, AttributeError) as exc:
            conn.send((None, reply[1] or _format_exception_chain(exc)))


class _PoolWorker:
    """A forked :func:`_pool_worker` process and the parent's end of
    its duplex pipe."""

    def __init__(self, store_root: Optional[str], telemetry: bool) -> None:
        import multiprocessing

        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_pool_worker, args=(child, store_root, telemetry),
            daemon=True,
        )
        self.process.start()
        child.close()

    def end(self, kill: bool = False) -> Optional[int]:
        """Kill (``kill``) or stop the worker, reap it and return its
        exit code.  Workers forked later hold copies of the parent's
        end of this pipe, so closing it alone never stops the worker."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:  # it is gone already
                pass
        self.process.join()
        self.conn.close()
        return self.process.exitcode


def _cache_get(
    cache: ResultCache, key: str, record: Callable[[Record], object]
) -> Optional[SimResult]:
    """``cache.get(key)``, handing ``record`` a ``quarantine`` record when
    the entry failed verification (in the parent and in runners)."""
    quarantined = cache.quarantined
    result = cache.get(key)
    if cache.quarantined > quarantined:
        record({"kind": "quarantine", "fp": key})
    return result


def _publish(
    cache: ResultCache, key: str, result: SimResult, cell: SweepCell,
    directive: Optional[ChaosDirective],
) -> None:
    """Cache a finished cell's result, telemetry (a recording of this
    run) stripped: the one place an entry is published, in serial, pool
    and coordinator mode.  A ``corrupt_write`` directive then damages
    the entry; the caller keeps the result it computed, and the next
    read quarantines the entry and recomputes it."""
    if result.telemetry is not None:
        result = dataclasses.replace(result, telemetry=None)
    cache.put(key, result)
    if (
        directive is not None
        and directive.kind is FaultKind.CORRUPT_WRITE
        and not cache.write_disabled
    ):
        corrupt_file(cache.path_for(key), salt=cell.tag or key)


def _picklable(cell: SweepCell) -> bool:
    try:
        pickle.dumps(cell)
        return True
    # Probe, not a failure path: any error at all just means "run this
    # cell in-process instead of shipping it to a pool worker".
    except Exception:  # repro-lint: ignore[RPR010] -- picklability probe; falls back to serial
        return False


class _CellTimeout(Exception):
    """Internal marker: the attempt exceeded the per-cell deadline."""


class SweepRunner:
    """Executes sweep cells with fan-out, caching, and fault tolerance.

    Parameters
    ----------
    jobs, use_cache, cache_dir:
        Worker count (see :func:`resolve_jobs`) and result-cache
        configuration.  With ``jobs > 1``, or with a cell timeout set,
        every picklable cell runs on up to ``jobs`` worker processes the
        runner forks and owns; other cells run in-process.
    cell_timeout:
        Seconds one attempt may run before its worker is killed and
        replaced and the attempt counts as a (transient) failure.
        Defaults to ``REPRO_CELL_TIMEOUT``; unset means no timeout.
        Every pooled attempt runs under it, the last one too, at
        ``jobs=1`` as well.  A cell whose policy does not pickle runs
        in-process with no deadline: it cannot be preempted.  Rejected
        in coordinator mode.
    on_error:
        ``raise`` (default), ``skip`` or ``retry``; see :class:`OnError`.
    max_attempts:
        Total tries per cell under retrying policies (first run
        included).  A worker's death or a timeout costs only the
        attempt that worker held.
    backoff_base, backoff_cap, backoff_seed:
        Exponential backoff between retries: attempt ``k`` waits
        ``base * 2**(k-2)`` seconds (capped) scaled by a jitter factor
        in [0.5, 1.5) drawn deterministically from ``backoff_seed``, the
        cell fingerprint and the attempt number — identical runs back
        off identically.
    chaos:
        Optional :class:`~repro.sim.chaos.ChaosSchedule` injecting
        faults by cell tag (tests only).  ``stale_lease`` needs
        ``coordinator``: only coordinator runners hold leases.
    coordinator:
        A :class:`~repro.sim.coordinator.CoordinatorConfig` switches
        cell execution to the lease-based work-stealing coordinator:
        N independent runner processes claim cells via short-TTL lease
        files, steal cells from dead runners, and journal completions
        so ``--resume`` continues a killed sweep exactly where it left
        off (see :mod:`repro.sim.coordinator`).  Requires the result
        cache (it is the rendezvous point) and is mutually exclusive
        with telemetry recording and with ``cell_timeout`` (runners
        enforce no per-cell deadline).
    trace_store:
        Shared zero-copy trace store.  ``True`` (or ``1``/``on``) uses
        ``<cache>/traces``, where ``<cache>`` is ``cache_dir`` when
        given and the default cache root otherwise; a path uses that
        directory, ``None`` defers to ``REPRO_TRACE_STORE``, and
        ``False`` (or an unset environment) disables sharing.  When on,
        the parent materializes each distinct ``(workload, chiplets,
        seed)`` trace into a format-v2 arena archive once, in every
        mode, coordinator included; every pool worker and runner then
        attaches it by fingerprint via ``np.memmap``: all processes
        share one set of physical pages instead of each holding a
        private trace copy.  Results are bit-identical with the store
        on or off (the trace bytes are the same; only where they live
        changes), and any store failure degrades to private
        regeneration.
    telemetry, telemetry_dir:
        ``telemetry=True`` (default: the ``REPRO_TELEMETRY`` env flag)
        records per-stage telemetry for every cell and dumps one JSON
        file per completed cell into ``telemetry_dir`` (default
        ``REPRO_TELEMETRY_DIR`` or ``./telemetry``).  Cache *reads* are
        skipped while telemetry is on — a cached result has no telemetry
        to dump — and telemetry is stripped before results are written
        back, so the cache stays telemetry-free either way.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        cell_timeout: Optional[float] = None,
        on_error: Union[str, OnError] = OnError.RAISE,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
        backoff_seed: int = 0,
        chaos: Optional[ChaosSchedule] = None,
        coordinator: Optional["CoordinatorConfig"] = None,
        telemetry: Optional[bool] = None,
        telemetry_dir: Optional[Union[str, Path]] = None,
        trace_store: Union[None, bool, str, Path] = None,
        surrogate: Union[None, bool, str, int, "SurrogateConfig"] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if use_cache else None
        )
        #: shared trace store (``--trace-store``/``REPRO_TRACE_STORE``):
        #: the parent materializes each distinct trace once and workers
        #: and runners attach zero-copy by fingerprint; None means every
        #: worker regenerates its own trace (the default)
        self.trace_store: Optional[TraceStore] = None
        if trace_store is not False and (
            trace_store is not None or "REPRO_TRACE_STORE" in os.environ
        ):
            # The store module loads only when asked for.
            from ..trace.store import TraceStore, resolve_trace_store

            store_root = resolve_trace_store(
                trace_store,
                Path(cache_dir) if cache_dir is not None else None,
            )
            if store_root is not None:
                self.trace_store = TraceStore(store_root)
        self.telemetry = (
            telemetry_enabled_by_env() if telemetry is None else bool(telemetry)
        )
        self.telemetry_dir = Path(
            telemetry_dir
            if telemetry_dir is not None
            else os.environ.get("REPRO_TELEMETRY_DIR", "telemetry")
        )
        #: where per-cell telemetry dumps go; a failed dump warns once
        #: and disables the rest, like the result cache
        self.telemetry_dumps = DurableDir(
            self.telemetry_dir,
            name="telemetry dir",
            unwritable="telemetry dumps disabled for this run",
        )
        self.cell_timeout = resolve_cell_timeout(cell_timeout)
        self.on_error = resolve_on_error(on_error)
        self.max_attempts = int(max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_seed = backoff_seed
        self.chaos = chaos
        self.coordinator = coordinator
        #: surrogate-guided pruning (``repro explore``; off unless
        #: passed): when set, ``run_cells`` simulates only the cells the
        #: active sampler deems decision-relevant and returns
        #: :class:`~repro.surrogate.results.PredictedResult` for the rest
        self.surrogate: Optional[SurrogateConfig] = None
        if surrogate is not None:
            from ..surrogate.active import resolve_surrogate

            self.surrogate = resolve_surrogate(surrogate)
        # Conflicts are checked here, after the environment is resolved,
        # and nowhere else; each message names the flag and variable.
        if self.max_attempts < 1:
            raise ValueError(
                "--retries must be at least 0 (max_attempts at least 1), "
                f"got max_attempts={self.max_attempts}"
            )
        if self.surrogate is not None and self.telemetry:
            raise ValueError(
                "surrogate mode (repro explore) cannot record telemetry "
                "(--telemetry/REPRO_TELEMETRY): predicted cells never "
                "simulate, so they have no stages to dump"
            )
        if (
            chaos is not None
            and coordinator is None
            and FaultKind.STALE_LEASE in chaos.kinds()
        ):
            raise ValueError(
                "the stale_lease chaos kind needs coordinator mode "
                "(--runners/REPRO_RUNNERS): only coordinator runners hold "
                "leases"
            )
        #: set after a coordinator run: the (possibly derived) sweep id
        #: a later ``--resume`` can name
        self.last_sweep_id: Optional[str] = None
        if coordinator is not None:
            mode = "coordinator mode (--runners/REPRO_RUNNERS or --resume)"
            if coordinator.runners < 1:
                raise ValueError(
                    "--runners/REPRO_RUNNERS must be at least 1, "
                    f"got {coordinator.runners}"
                )
            if self.cache is None:
                raise ValueError(
                    f"{mode} requires the result cache, the rendezvous "
                    "point runners share: drop --no-cache"
                )
            if self.telemetry:
                raise ValueError(
                    f"{mode} cannot record telemetry "
                    "(--telemetry/REPRO_TELEMETRY): results travel "
                    "through the telemetry-free result cache"
                )
            if self.cell_timeout is not None:
                raise ValueError(
                    f"{mode} enforces no --cell-timeout/REPRO_CELL_TIMEOUT: "
                    "its runners have no per-cell deadline, and a hung "
                    "cell's heartbeat would keep its lease forever"
                )
        #: every cell event of every ``run_cells`` call, in order; in
        #: coordinator mode the journal records the parent tails too
        self.records: List[Record] = []
        #: ``SweepStats.fold(self.records)``, kept as the records arrive
        self.stats = SweepStats()
        #: injectable for tests: how a serial retry's backoff waits
        self._sleep = time.sleep

    # --- execution ---

    def run_cells(
        self, cells: Iterable[Union[SweepCell, tuple]]
    ) -> List[Optional[SimResult]]:
        """Run every cell, in order, returning one result per cell.

        Cache hits are returned without simulating; misses are grouped
        by fingerprint (duplicates simulate once), fanned out across the
        process pool when ``jobs > 1``, and written back to the cache as
        they complete.  Under ``on_error='skip'``/``'retry'`` a cell
        that ultimately fails yields ``None`` in the returned list and a
        :class:`CellFailure` in ``stats.failures``; under ``'raise'``
        every returned entry is a :class:`SimResult`.

        With ``surrogate`` enabled the grid is *pruned*: only the cells
        the active sampler finds decision-relevant run exactly (through
        this same machinery, so they are bit-identical to a plain sweep
        and cached normally), and every other entry in the returned
        list is a :class:`~repro.surrogate.results.PredictedResult`
        from the fitted cost model.
        """
        cells = [
            c if isinstance(c, SweepCell) else SweepCell(*c) for c in cells
        ]
        wall_before = self.stats.wall_seconds
        start = time.perf_counter()
        try:
            if self.surrogate is not None:
                return self._run_surrogate(cells)
            return self._run_exact(cells)
        finally:
            self.stats.wall_seconds = (
                wall_before + time.perf_counter() - start
            )

    def _record(self, record: Record) -> bool:
        """Append one cell event and fold it into :attr:`stats`; True
        when it settled its cell (the caller then settles it)."""
        self.records.append(record)
        return self.stats.apply(record)

    def _cached(
        self, kind: str, key: str, results: List[Optional[SimResult]],
        index: int, result: SimResult,
    ) -> None:
        """Settle a cell the cache answered: a ``hit`` or ``resumed``."""
        record = {"kind": kind, "fp": key}
        self._record(record)
        self._settle(record, results, index, result)

    def _settle(
        self, record: Record, results: List[Optional[SimResult]],
        index: int, result: Optional[SimResult] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """End one cell whose settling record was just folded, in every
        mode: hand out its result, or turn its ``failed`` record into a
        :class:`SweepError` under ``on_error='raise'``.  ``exc`` is the
        exception behind the failure when this process saw it."""
        if record["kind"] != "failed":
            results[index] = result
            return
        if self.on_error is not OnError.RAISE:
            return
        failure = self.stats.failures[-1]  # the fold built it from record
        raise SweepError(
            f"sweep cell {failure.fingerprint} ({failure.workload}/"
            f"{failure.policy}) failed ({failure.kind}) on attempt "
            f"{failure.attempts}: {failure.error}",
            fingerprint=failure.fingerprint,
            context={
                name: getattr(failure, name)
                for name in ("kind", "attempts", "workload", "policy", "tag")
            },
        ) from (exc if isinstance(exc, Exception) else None)

    def _run_surrogate(self, cells: List[SweepCell]) -> List[object]:
        """Surrogate-guided execution: see :func:`repro.surrogate.
        active.explore` for the sampling loop itself."""
        from ..surrogate.active import explore

        keys = [cell_fingerprint(c) for c in cells]
        # The corpus: the grid's cached results, read by key so that
        # every quarantine the reads cause is recorded.
        corpus: Dict[str, SimResult] = {}
        if self.cache is not None:
            for key in dict.fromkeys(keys):
                hit = _cache_get(self.cache, key, self._record)
                if hit is not None:
                    corpus[key] = hit
        ran = set()

        def exact_fn(indices: List[int]) -> Dict[int, Optional[SimResult]]:
            ran.update(keys[i] for i in indices)
            batch_results = self._run_exact([cells[i] for i in indices])
            return dict(zip(indices, batch_results))

        outcome = explore(
            cells, exact_fn, self.surrogate, corpus=corpus, keys=keys
        )
        # Exact batches recorded their own cells; record the rest of the
        # grid: duplicates, corpus hits and predictions.
        seen = set()
        predicted = []
        for key, result in zip(keys, outcome.results):
            if key in seen:
                self._record({"kind": "queued", "fp": key, "dup": True})
            elif key not in ran:
                self._record({"kind": "queued", "fp": key})
                if key in corpus:
                    self._record({"kind": "hit", "fp": key})
            seen.add(key)
            if getattr(result, "predicted", False):
                predicted.append(key)
        self._record({"kind": "predicted", "fps": predicted,
                      "rounds": outcome.stats.rounds})
        return outcome.results

    def _run_exact(
        self, cells: List[SweepCell]
    ) -> List[Optional[SimResult]]:
        keys = [cell_fingerprint(c) for c in cells]
        results: List[Optional[SimResult]] = [None] * len(cells)

        leaders = {}  # fingerprint -> index of the cell that simulates it
        pending: List[int] = []
        for i, key in enumerate(keys):
            if key in leaders:
                self._record({"kind": "queued", "fp": key, "dup": True})
                continue
            leaders[key] = i
            self._record({"kind": "queued", "fp": key})
            # Cached results carry no telemetry, so a telemetry sweep
            # re-simulates everything to produce its per-cell dumps.
            # Coordinator mode classifies its own cache hits (journaled
            # completions count as resumed cells, not plain hits).
            if (
                self.cache is not None
                and not self.telemetry
                and self.coordinator is None
            ):
                hit = _cache_get(self.cache, key, self._record)
                if hit is not None:
                    self._cached("hit", key, results, i, hit)
                    continue
            pending.append(i)

        if pending:
            self._execute_pending(cells, keys, pending, results)

        # Fan shared results back out to duplicate cells.
        for i, key in enumerate(keys):
            if results[i] is None:
                results[i] = results[leaders[key]]
        return results

    def _execute_pending(
        self,
        cells: List[SweepCell],
        keys: List[str],
        pending: List[int],
        results: List[Optional[SimResult]],
    ) -> None:
        if self.coordinator is not None:
            from .coordinator import Coordinator

            coordinator = Coordinator(self.coordinator, self)
            coordinator.run(cells, keys, pending, results)
            self.last_sweep_id = coordinator.sweep_id
            return
        self._prepare_traces(cells, keys, pending)
        # With jobs > 1 or a timeout every picklable cell goes through
        # the pool, a lone one too, so the timeout is enforceable.
        pool = self.jobs > 1 or self.cell_timeout is not None
        pool_indices: List[int] = []
        serial_indices: List[int] = []
        for i in pending:
            pooled = pool and _picklable(cells[i])
            (pool_indices if pooled else serial_indices).append(i)

        if pool_indices:
            self._run_pool(cells, keys, pool_indices, results)
        for i in serial_indices:
            self._run_serial(cells, keys, i, results)

    # --- trace-store materialization ---

    def _prepare_traces(
        self, cells: List[SweepCell], keys: List[str], pending: List[int]
    ) -> None:
        """Materialize every pending cell's trace into the store once.

        The parent does this in every mode, coordinator included, so
        workers and runners only ever attach.  Content addressing
        dedupes across cells: the first cell of each distinct
        ``(workload, chiplets, seed)`` builds and writes the archive,
        the rest just read its header.  Each cell gets one
        ``materialized`` record with its trace's arena bytes; only the
        cell whose call wrote the archive is marked ``created``.
        """
        store = self.trace_store
        if store is None:
            return
        for i in pending:
            _, nbytes, created = store.ensure(*_trace_inputs(cells[i]))
            self._record({"kind": "materialized", "fp": keys[i],
                          "bytes": nbytes, "created": created})

    @property
    def _store_root(self) -> Optional[str]:
        store = self.trace_store
        return str(store.root) if store is not None else None

    # --- the owned worker pool ---

    def _run_pool(
        self,
        cells: List[SweepCell],
        keys: List[str],
        indices: List[int],
        results: List[Optional[SimResult]],
    ) -> None:
        """Run the cells at ``indices`` on up to ``jobs`` owned workers,
        each holding at most one attempt.  A missed deadline kills only
        the hung worker, and a worker's death charges only the attempt
        it held; the next hand-off forks a replacement."""
        import heapq
        from multiprocessing.connection import wait

        # Load the replay modules before the first fork, so every worker
        # inherits them instead of importing NumPy and the engine itself.
        from . import engine  # noqa: F401

        size = min(self.jobs, len(indices))
        timeout = self.cell_timeout or math.inf
        # (not before, index, attempt): due attempts go out in cell
        # order, a retry once its backoff has passed
        ready = [(0.0, i, 1) for i in indices]
        idle: List[_PoolWorker] = []
        # a working worker's pipe -> (worker, index, attempt, deadline)
        busy: Dict["Connection", Tuple[_PoolWorker, int, int, float]] = {}
        first_start: Dict[int, float] = {}

        def failed(
            index: int, attempt: int, kind: str,
            exc: Union[BaseException, str], **extra: object,
        ) -> None:
            if self._attempt_failed(
                cells, keys, results, index, attempt, kind, exc,
                first_start[index], transient=kind != "error", **extra,
            ):
                not_before = time.monotonic() + self._backoff_delay(
                    keys[index], attempt + 1
                )
                heapq.heappush(ready, (not_before, index, attempt + 1))

        try:
            while ready or busy:
                now = time.monotonic()
                while ready and ready[0][0] <= now and len(busy) < size:
                    _, index, attempt = ready[0]
                    directive = self._directive(cells[index], attempt)
                    worker = idle.pop() if idle else _PoolWorker(
                        self._store_root, self.telemetry
                    )
                    try:
                        worker.conn.send((cells[index], directive))
                    except OSError:
                        # Found dead at hand-off: the attempt never
                        # started, so the next worker takes it.
                        worker.end()
                        continue
                    heapq.heappop(ready)
                    first_start.setdefault(index, time.perf_counter())
                    self._record({"kind": "start", "fp": keys[index],
                                  "attempt": attempt})
                    busy[worker.conn] = (worker, index, attempt,
                                         now + timeout)
                # Wake for the next result or deadline, and for the next
                # backoff only while a worker is free to take it: a due
                # backoff with every worker busy would spin the loop.
                wake = min(
                    (slot[3] for slot in busy.values()), default=math.inf
                )
                if ready and len(busy) < size:
                    wake = min(wake, ready[0][0])
                delay = None if wake == math.inf else wake - time.monotonic()
                for conn in wait(list(busy), delay):
                    worker, index, attempt, _ = busy.pop(conn)
                    try:
                        value, error = conn.recv()
                    except (EOFError, OSError):
                        failed(index, attempt, "worker-died",
                               f"worker exited with code {worker.end()}")
                        continue
                    idle.append(worker)
                    if error is None:
                        self._complete(index, keys[index], value, results,
                                       cells[index], attempt)
                    else:
                        failed(index, attempt, "error",
                               error if value is None else value,
                               error=error)
                now = time.monotonic()
                for conn in [c for c, slot in busy.items() if slot[3] <= now]:
                    worker, index, attempt, _ = busy.pop(conn)
                    worker.end(kill=True)
                    failed(index, attempt, "timeout", _CellTimeout(
                        f"cell exceeded the {self.cell_timeout}s timeout "
                        f"on attempt {attempt}"
                    ))
        finally:
            for worker in idle:
                worker.end()
            for worker, *_ in busy.values():
                worker.end(kill=True)

    # --- serial execution (unpicklable cells; jobs=1 with no timeout) ---

    def _run_serial(
        self,
        cells: List[SweepCell],
        keys: List[str],
        index: int,
        results: List[Optional[SimResult]],
    ) -> None:
        attempt = 1
        started = time.perf_counter()
        while True:
            self._record(
                {"kind": "start", "fp": keys[index], "attempt": attempt}
            )
            directive = self._directive(cells[index], attempt)
            try:
                result = _run_cell_worker(
                    cells[index], directive, in_process=True,
                    store_root=self._store_root, telemetry=self.telemetry,
                )
            except Exception as exc:
                if not self._attempt_failed(
                    cells, keys, results, index, attempt, "error", exc,
                    started, transient=False,
                ):
                    return
                attempt += 1
                self._sleep(self._backoff_delay(keys[index], attempt))
            else:
                self._complete(index, keys[index], result, results,
                               cells[index], attempt)
                return

    # --- settling a cell ---

    def _attempt_failed(
        self, cells: List[SweepCell], keys: List[str],
        results: List[Optional[SimResult]], index: int, attempt: int,
        kind: str, exc: Union[BaseException, str], started: float, *,
        transient: bool, **extra: object,
    ) -> bool:
        """Record one failed attempt; True when :func:`_may_retry` gives
        the cell another (the caller schedules it), else the cell
        settles as failed.  ``extra`` fields override the record's (a
        pool worker's ``error`` text)."""
        cell, key = cells[index], keys[index]
        if _may_retry(
            self.on_error, attempt, self.max_attempts, transient=transient
        ):
            self._record(_failure_record("error", cell, key, attempt, kind,
                                         exc, **extra))
            return True
        record = _failure_record("failed", cell, key, attempt, kind, exc,
                                 wall=time.perf_counter() - started, **extra)
        if self._record(record):
            self._settle(record, results, index,
                         exc=exc if isinstance(exc, BaseException) else None)
        return False

    def _complete(
        self,
        index: int,
        key: str,
        result: SimResult,
        results: List[Optional[SimResult]],
        cell: SweepCell,
        attempt: int,
    ) -> None:
        """Flush a finished cell to the cache immediately, so an abort
        later in the sweep never discards it, then settle it."""
        if result.telemetry is not None:
            self._dump_telemetry(key, cell, result)
        if self.cache is not None:
            _publish(
                self.cache, key, result, cell, self._directive(cell, attempt)
            )
        record = {"kind": "done", "fp": key, "attempt": attempt,
                  "trace": result.trace_source}
        self._record(record)
        self._settle(record, results, index, result)

    def _dump_telemetry(
        self, key: str, cell: SweepCell, result: SimResult
    ) -> None:
        """Write one JSON telemetry file per completed cell.

        Like the result cache, a failed write warns once and disables
        further dumps instead of failing the sweep.
        """
        payload = {
            "fingerprint": key,
            "workload": result.workload,
            "policy": result.policy,
            "tag": cell.tag,
            "telemetry": result.telemetry,
        }
        path = self.telemetry_dir / f"{result.workload}-{result.policy}-{key[:12]}.json"
        self.telemetry_dumps.write(
            atomic_write, path, json.dumps(payload, indent=2), fsync=False
        )

    # --- retry pacing / chaos ---

    def _backoff_delay(self, key: str, attempt: int) -> float:
        """Deterministic exponential backoff with jitter for ``attempt``.

        Pure in (``backoff_seed``, ``key``, ``attempt``): no wall-clock
        or process state feeds in, so identical sweeps back off
        identically and tests can assert exact delays.
        """
        base = min(
            self.backoff_cap, self.backoff_base * (2.0 ** (attempt - 2))
        )
        rng = random.Random(f"{self.backoff_seed}:{key}:{attempt}")
        return base * (0.5 + rng.random())

    def _directive(
        self, cell: SweepCell, attempt: int
    ) -> Optional[ChaosDirective]:
        if self.chaos is None:
            return None
        return self.chaos.directive_for(cell.tag, attempt)

    def run(
        self,
        workload: Union[str, WorkloadSpec],
        policy,
        config: Optional[GPUConfig] = None,
        *,
        interleave: InterleavePolicy = InterleavePolicy.NUMA_AWARE,
        remote_cache: Optional[str] = None,
        seed: int = 7,
        timing: Optional[TimingParams] = None,
    ) -> Optional[SimResult]:
        """Single-cell convenience mirroring :func:`run_workload`."""
        cell = SweepCell(
            workload,
            policy,
            config,
            interleave=interleave,
            remote_cache=remote_cache,
            seed=seed,
            timing=timing,
        )
        return self.run_cells([cell])[0]

    # --- reporting ---

    def summary_line(self) -> str:
        return self.stats.summary_line()

    def failure_report(self) -> str:
        """One line per failed cell, empty string when none failed."""
        return "\n".join(
            f"[sweep] FAILED {failure.summary()}"
            for failure in self.stats.failures
        )


_default_runner: Optional[SweepRunner] = None


def default_runner() -> SweepRunner:
    """The shared runner used when experiments get ``runner=None``.

    Library calls stay serial and cache-free unless opted in via the
    environment (``REPRO_JOBS`` for fan-out, ``REPRO_CACHE=1`` or an
    explicit ``REPRO_CACHE_DIR`` for caching), so importing code — and
    the deterministic test suite — never reads stale results by
    surprise.  ``REPRO_CACHE`` takes the trace store's on/off
    spellings: ``0``, ``false``, ``off`` and ``no`` (any case) are off.
    The CLI and report script construct their own runners with caching
    on by default.
    """
    global _default_runner
    if _default_runner is None:
        from ..trace.store import _FALSY

        jobs = resolve_jobs() if os.environ.get("REPRO_JOBS") else 1
        use_cache = bool(
            os.environ.get("REPRO_CACHE_DIR")
            or os.environ.get("REPRO_CACHE", "").strip().lower() not in _FALSY
        )
        _default_runner = SweepRunner(jobs=jobs, use_cache=use_cache)
    return _default_runner


def set_default_runner(runner: Optional[SweepRunner]) -> None:
    """Override (or with ``None`` reset) the shared default runner."""
    global _default_runner
    _default_runner = runner


def run_cells(
    cells: Sequence[Union[SweepCell, tuple]],
    runner: Optional[SweepRunner] = None,
) -> List[Optional[SimResult]]:
    """Run cells through ``runner`` (default: the shared runner)."""
    return (runner or default_runner()).run_cells(cells)
