"""The one durability surface: how sweep state is published, verified,
moved aside and claimed.

A sweep that survives SIGKILL (:mod:`repro.sim.coordinator`) is only as
crash-safe as its weakest write, so each of these decisions is made
here, once:

* :func:`atomic_write` — write-to-temp + flush + ``fsync`` + atomic
  rename (plus a best-effort directory fsync), so a reader never
  observes a half-written file.  Result-cache entries, trace archives,
  telemetry dumps, lease files and sweep manifests all go through it;
* checksummed *entries* (:func:`frame_entry` / :func:`parse_entry`) — a
  one-line JSON header carrying the payload's length and CRC32, so
  truncation, bit rot and torn writes are detected on read;
* :class:`DurableDir` — quarantine of an artifact that fails
  verification, and the rule that the first failed write disables a
  writer with one warning (result cache, trace store, telemetry dumps);
* :func:`create_exclusive` — the ``O_CREAT | O_EXCL`` claim of a lease;
* :func:`corrupt_file` — the damage the ``corrupt_write`` chaos kind
  injects into a just-published cache entry, in every execution mode.

The coordinator journal (:mod:`repro.sim.journal`) keeps its own
single-``write`` ``O_APPEND`` frames and torn-tail repair.  repro-lint
rules RPR006 and RPR009 enforce the routing: durable-state modules may
not call ``open(..., "w")`` / ``write_bytes`` / ``np.save`` directly,
and the protocol files write lease, journal and trace state only
through this module, the journal and the lease helpers.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Sequence, Tuple, Union

__all__ = [
    "atomic_write",
    "corrupt_file",
    "create_exclusive",
    "frame_entry",
    "parse_entry",
    "DurableDir",
    "EntryCorrupt",
]


def atomic_write(
    path: Union[str, Path],
    data: Union[bytes, str, Sequence[Union[bytes, memoryview]]],
    *,
    fsync: bool = True,
) -> None:
    """Atomically replace ``path``'s contents with ``data``.

    The data is written to a temporary file in the same directory,
    flushed and fsynced, then renamed over ``path`` — the only durable
    rename POSIX gives us.  A crash at any point leaves either the old
    file or the complete new one.  ``fsync=False`` skips the syncs for
    callers that only need atomicity (e.g. frequent lease renewals
    whose loss is recoverable by design).

    ``data`` may also be a sequence of bytes-like buffers, written back
    to back — so a caller holding a small header plus a large array
    (the v2 trace archive) can stream both without concatenating them
    into a throwaway copy first.

    Raises ``OSError`` on storage failure; callers with a degradation
    path write through :meth:`DurableDir.write`, everyone else
    propagates.
    """
    target = Path(path)
    if isinstance(data, str):
        buffers: Sequence[Union[bytes, memoryview]] = (data.encode("utf-8"),)
    elif isinstance(data, (bytes, bytearray, memoryview)):
        buffers = (data,)
    else:
        buffers = data
    target.parent.mkdir(parents=True, exist_ok=True)
    # Mode 0o666 lets the kernel apply the umask (``mkstemp`` publishes
    # 0600, unreadable to other uids sharing a cache directory); the
    # umask is process-wide, so it is never flipped.
    tmp = str(target.parent / f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            for buffer in buffers:
                os.write(fd, buffer)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(target.parent)


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of ``directory`` so the rename itself is durable.

    Some platforms/filesystems refuse to open directories; the rename is
    still atomic there, just not guaranteed ordered against power loss.
    """
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def create_exclusive(path: Union[str, Path]) -> bool:
    """Create ``path`` empty, or return False when it already exists.

    An atomic test-and-set on any POSIX filesystem: of several processes
    racing for one path, exactly one wins.  Other ``OSError``s propagate.
    """
    try:
        fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


class DurableDir:
    """A directory of durable artifacts and the two failure rules its
    writer keeps, each with one warning: the first failed :meth:`write`
    disables the rest, and :meth:`quarantine` moves an artifact that
    failed verification to :attr:`corrupt_dir`.  A broken disk or a
    damaged file then costs a recompute, never a wrong or failed sweep.

    The warnings read "<name> at <root> is not writable (<error>);
    <unwritable>" and "quarantined corrupt <artifact> <file> (<reason>)
    to <corrupt_dir>; <recovery>".
    """

    def __init__(
        self, root: Union[str, Path], *, name: str, unwritable: str,
        artifact: str = "artifact", recovery: str = "it will be recomputed",
    ) -> None:
        self.root = Path(root)
        self._name, self._unwritable = name, unwritable
        self._artifact, self._recovery = artifact, recovery
        #: set after the first failed write; no further writes attempted
        self.write_disabled = False
        #: corrupt artifacts moved aside by this instance (monotonic)
        self.quarantined = 0
        self._quarantine_warned = False

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def write(
        self, writer: Callable[..., object], *args: Any, **kwargs: Any
    ) -> bool:
        """``writer(*args, **kwargs)`` unless writes are disabled; True
        when it wrote.  An ``OSError`` disables all later writes."""
        if self.write_disabled:
            return False
        try:
            writer(*args, **kwargs)
        except OSError as exc:
            self.write_disabled = True
            warnings.warn(
                f"{self._name} at {self.root} is not writable ({exc}); "
                f"{self._unwritable}",
                RuntimeWarning,
                stacklevel=3,
            )
            return False
        return True

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a failed artifact to ``corrupt/`` (fall back to deleting)."""
        self.quarantined += 1
        dest = self.corrupt_dir / path.name
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            if dest.exists():
                dest = self.corrupt_dir / f"{path.name}.{self.quarantined}"
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        if not self._quarantine_warned:
            self._quarantine_warned = True
            warnings.warn(
                f"quarantined corrupt {self._artifact} {path.name} "
                f"({reason}) to {self.corrupt_dir}; {self._recovery}",
                RuntimeWarning,
                stacklevel=3,
            )


def corrupt_file(path: Union[str, Path], salt: str = "") -> bool:
    """Deterministically damage ``path``: bit-flip or truncate.

    The damage mode and position derive purely from the file size and
    ``salt`` (usually the cell tag), so a chaos run is exactly
    repeatable: even ``salt`` hashes truncate the file to half its
    length (a torn write), odd ones flip a single payload bit (bit
    rot).  Returns False when the file is missing or empty — nothing
    to corrupt.
    """
    try:
        size = os.stat(path).st_size
    except OSError:
        return False
    if size == 0:
        return False
    digest = zlib.crc32(salt.encode("utf-8")) & 0xFFFFFFFF
    if digest % 2 == 0:
        os.truncate(path, size // 2)
        return True
    position = digest % size
    with open(path, "r+b") as fh:
        fh.seek(position)
        byte = fh.read(1)
        fh.seek(position)
        fh.write(bytes([byte[0] ^ 0x40]))
    return True


class EntryCorrupt(ValueError):
    """A framed entry failed validation (torn, truncated, or bit-rotten)."""


def frame_entry(header: Dict[str, object], payload: bytes) -> bytes:
    """Frame ``payload`` behind a header line carrying length + CRC32.

    The returned bytes are ``<header-json>\\n<payload>`` where the header
    is ``header`` plus ``length`` (payload byte count) and ``crc32``
    (payload checksum).  ``header`` values must be JSON-native.
    """
    head = dict(header)
    head["length"] = len(payload)
    head["crc32"] = zlib.crc32(payload) & 0xFFFFFFFF
    line = json.dumps(head, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n" + payload


def parse_entry(data: bytes) -> Tuple[Dict[str, object], bytes]:
    """Validate and split a framed entry into (header, payload).

    Raises :class:`EntryCorrupt` naming the failure when the header is
    unparseable, the payload is shorter or longer than the header
    declares (torn/truncated write), or the CRC32 does not match
    (bit rot).
    """
    newline = data.find(b"\n")
    if newline < 0:
        raise EntryCorrupt("no header delimiter")
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise EntryCorrupt(f"unparseable header: {exc}") from None
    if not isinstance(header, dict):
        raise EntryCorrupt("header is not an object")
    length = header.get("length")
    crc = header.get("crc32")
    if not isinstance(length, int) or not isinstance(crc, int):
        raise EntryCorrupt("header missing length/crc32")
    payload = data[newline + 1:]
    if len(payload) != length:
        raise EntryCorrupt(
            f"payload is {len(payload)} bytes, header declares {length}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise EntryCorrupt("payload CRC32 mismatch")
    return header, payload
