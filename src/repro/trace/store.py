"""Content-addressed trace store: materialize once, attach everywhere.

Sweeps replay far fewer *distinct* traces than cells — a trace is a
deterministic function of ``(workload spec, num_chiplets, seed)`` and of
nothing else.  Without sharing, every worker process
regenerates (or privately loads) its cell's trace, so sweep memory
scales as trace-bytes × ``--jobs``.

The store is the fix: a directory of format-v2 arena archives keyed by
:func:`trace_fingerprint`, living beside the result cache.  The sweep
parent *materializes* each distinct trace — builds it once and writes
the archive atomically — in every execution mode, the lease
coordinator's included; every pool worker and coordinator runner then
*attaches* by fingerprint: ``np.memmap`` of the archive's data section,
zero copies, all processes sharing one set of physical pages through
the kernel page cache.  Per-worker trace residency drops from
``nbytes`` to roughly ``nbytes / jobs``.  Workers and runners never
write the store: a missing or quarantined archive means they
regenerate the trace privately.

Robustness is the result cache's (:class:`~repro.sim.durability.
DurableDir`): archives are CRC-verified on attach, a corrupt or
truncated archive is quarantined to ``<root>/corrupt/`` and reported as
a miss (the caller regenerates — never trusts, never crashes), and
concurrent materializations of the same fingerprint (two sweeps
sharing one store) race benignly because both writers produce
identical bytes and the atomic rename makes the last one win.

Every failure path degrades to regeneration: a sweep with a broken
store is slower, never wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional, Tuple, Union

from ..errors import TraceFormatError
from ..sim.durability import DurableDir
from .workload import Trace, Workload, WorkloadSpec

__all__ = [
    "TraceStore",
    "resolve_trace_store",
    "trace_fingerprint",
]

#: Environment switch for the trace store: ``0``/``false``/``off``
#: disables it, ``1``/``true``/``on`` enables it at the default root,
#: anything else is taken as the store directory itself.
TRACE_STORE_ENV = "REPRO_TRACE_STORE"

_FALSY = ("", "0", "false", "off", "no")
_TRUTHY = ("1", "true", "on", "yes")


def trace_fingerprint(
    workload: WorkloadSpec, num_chiplets: int, seed: int
) -> str:
    """Content hash of everything that determines a trace's bytes.

    Two sweep cells with equal fingerprints replay byte-identical
    traces (policy, interleave, remote cache and timing only affect the
    replay), so the fingerprint is the store filename.
    """
    from ..sim.parallel import _jsonable  # lazy: avoids import cycle

    payload = {
        "workload": _jsonable(workload),
        "seed": seed,
        "num_chiplets": num_chiplets,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_store_dir(cache_root: Optional[Path] = None) -> Path:
    """``<cache_root>/traces`` — beside the result cache, whose default
    root (``REPRO_CACHE_DIR`` or ``~/.cache/repro``) stands in for
    ``cache_root=None``."""
    if cache_root is None:
        from ..sim.parallel import default_cache_dir  # lazy: avoids cycle

        cache_root = default_cache_dir()
    return cache_root / "traces"


def resolve_trace_store(
    value: Union[None, bool, str, "os.PathLike[str]"] = None,
    cache_root: Optional[Path] = None,
) -> Optional[Path]:
    """The store root to use, or None when the store is off.

    ``value`` (CLI flag) wins over :data:`TRACE_STORE_ENV`; both accept
    on/off spellings or an explicit directory, and "on" means
    :func:`default_store_dir` of ``cache_root``.  The default — no
    flag, no env — is **off**: sharing changes how traces reach
    workers, so it is opt-in per run (and per CI matrix axis), never
    ambient.
    """
    if value is None:
        value = os.environ.get(TRACE_STORE_ENV)
        if value is None:
            return None
    if isinstance(value, bool):
        return default_store_dir(cache_root) if value else None
    text = str(os.fspath(value)).strip()
    if text.lower() in _FALSY:
        return None
    if text.lower() in _TRUTHY:
        return default_store_dir(cache_root)
    return Path(text)


class TraceStore(DurableDir):
    """A directory of format-v2 trace archives keyed by fingerprint.

    All writes go through the atomic v2 writer, all reads CRC-verify
    before any view is handed out.  After the first failed write the store
    degrades to regeneration (``write_disabled``).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        super().__init__(
            root if root is not None else default_store_dir(),
            name="trace store",
            unwritable="workers will regenerate traces for the rest of "
            "this run",
            artifact="trace archive",
            recovery="the trace will be regenerated",
        )

    # --- addressing ---

    def path_for(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.trace"

    # --- attach (read side) ---

    def attach(self, fingerprint: str) -> Optional[Trace]:
        """Memory-map the stored trace for ``fingerprint``, or None.

        A missing archive is a plain miss.  A corrupt one (bad magic,
        truncation, CRC mismatch — anything :func:`load_trace` rejects)
        is quarantined and reported as a miss, so the caller falls back
        to regenerating; the archive is kept under ``corrupt/`` for
        inspection.  The returned trace carries ``source="store"`` and
        read-only columns backed by the shared mapping.
        """
        from .io import load_trace  # lazy: importing the store loads no NumPy

        path = self.path_for(fingerprint)
        if not path.exists():
            return None
        try:
            trace = load_trace(path)
        except TraceFormatError as exc:
            self.quarantine(path, str(exc))
            return None
        trace.source = "store"
        return trace

    # --- materialize (write side) ---

    def ensure(
        self, workload: WorkloadSpec, num_chiplets: int, seed: int
    ) -> Tuple[str, int, bool]:
        """Make sure the trace for these inputs exists in the store.

        Returns ``(fingerprint, arena_nbytes, created)``.  When the
        archive already exists it is left alone (content-addressing:
        same key, same bytes) and its arena length is read from its
        header, so a warm store reports the bytes a cold one does.
        When the write fails, the store degrades — the fingerprint is
        still returned so callers can attempt attaches, which will miss
        and regenerate.

        Safe to race: two processes materializing the same fingerprint
        both build the identical trace (determinism invariant) and the
        atomic rename serializes the writes.
        """
        from .io import save_trace_v2, v2_data_length

        fingerprint = trace_fingerprint(workload, num_chiplets, seed)
        path = self.path_for(fingerprint)
        if path.exists():
            try:
                nbytes = max(0, v2_data_length(path))
            except (OSError, ValueError):
                nbytes = 0  # unreadable: the attach will quarantine it
            return fingerprint, nbytes, False
        trace = Workload(workload, num_chiplets, seed=seed).build_trace(seed)
        created = self.write(save_trace_v2, trace, path)
        return fingerprint, trace.nbytes, created

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.trace"))
