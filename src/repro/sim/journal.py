"""Append-only, CRC-framed sweep journal with truncated-tail recovery.

The coordinator (:mod:`repro.sim.coordinator`) records every cell
completion, failure, steal and quarantine as one journal record, and a
resumed sweep replays the journal to continue exactly where any prior
run — crashed or killed — left off.  The format is built for that job:

* each record is a frame ``<u32 length><u32 crc32><payload>`` (little
  endian) where the payload is one JSON object;
* appends are a single ``write(2)`` to a file opened ``O_APPEND``, so
  concurrent runner processes (and, over a shared filesystem, runner
  machines) interleave at frame granularity instead of corrupting each
  other;
* every append is fsynced by default — a record that was observed is a
  record that survives power loss;
* a process killed mid-append leaves a *torn frame*: incomplete or
  checksum-failing bytes.  Other runners keep appending after it, so
  the torn bytes need not be the tail: a reader skips them to the next
  frame that passes the length, CRC and JSON checks, and only a torn
  frame with no valid frame after it is a *torn tail*.
  :meth:`Journal.recover` truncates that tail back to the last good
  frame and returns the valid records — the at-most-one lost record is
  simply recomputed, never half-trusted.  :meth:`Journal.truncate` is
  that repair on its own, for a tailing reader that already knows where
  the last good frame ends.

Readers tail the journal incrementally with :meth:`Journal.read_from`,
which stops cleanly at an incomplete tail (an in-flight append) and
resumes from the same offset on the next poll.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["Journal", "MAX_RECORD_BYTES"]

_FRAME = struct.Struct("<II")  # payload length, payload crc32

#: Upper bound on one record's payload; a length field beyond this is
#: treated as frame corruption rather than an instruction to allocate.
MAX_RECORD_BYTES = 1 << 20

Record = Dict[str, object]


def _frame_at(data: bytes, pos: int) -> Optional[Tuple[Record, int]]:
    """The record of the frame at ``pos`` and the offset after it, or
    None when the bytes there fail the length, CRC or JSON check."""
    if pos + _FRAME.size > len(data):
        return None
    length, crc = _FRAME.unpack_from(data, pos)
    end = pos + _FRAME.size + length
    # A length beyond the bound is frame corruption, not a record.
    if length > MAX_RECORD_BYTES or end > len(data):
        return None
    payload = data[pos + _FRAME.size:end]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    return record, end


class Journal:
    """One append-only journal file of CRC32-framed JSON records."""

    def __init__(
        self, path: Union[str, Path], *, fsync: bool = True
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        #: Torn-frame bytes this instance's reads skipped to reach a
        #: later valid frame.
        self.skipped_bytes = 0

    # --- writing ---

    def append(self, record: Record) -> None:
        """Durably append one record (a JSON-native dict).

        The frame is issued as a single ``write`` on an ``O_APPEND``
        descriptor, so concurrent appenders never interleave bytes
        within a frame.
        """
        payload = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(
                f"journal record of {len(payload)} bytes exceeds the "
                f"{MAX_RECORD_BYTES}-byte frame bound"
            )
        frame = _FRAME.pack(
            len(payload), zlib.crc32(payload) & 0xFFFFFFFF
        ) + payload
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, frame)
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    # --- reading ---

    def read_from(self, offset: int) -> Tuple[List[Record], int, bool]:
        """Records appended at/after byte ``offset``.

        Returns ``(records, new_offset, clean)`` where ``new_offset``
        is the position after the last *complete valid* frame and
        ``clean`` is False when trailing bytes exist past it (either an
        append in flight or a torn tail from a crash).  A frame that
        fails its checks but has a valid frame somewhere after it is
        torn, not in flight: its bytes are skipped (and counted in
        :attr:`skipped_bytes`) and reading goes on from that frame.
        Callers tailing a live journal simply poll again from
        ``new_offset``; recovery callers use :meth:`recover` to
        truncate the tail instead.
        """
        try:
            with open(self.path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except FileNotFoundError:
            return [], offset, True

        records: List[Record] = []
        pos = 0
        total = len(data)
        while pos < total:
            frame = _frame_at(data, pos)
            if frame is None:
                later = next(
                    (
                        q
                        for q in range(pos + 1, total - _FRAME.size + 1)
                        if _frame_at(data, q) is not None
                    ),
                    None,
                )
                if later is None:
                    break
                self.skipped_bytes += later - pos
                pos = later
                continue
            record, pos = frame
            records.append(record)
        return records, offset + pos, pos == total

    def replay(self) -> List[Record]:
        """All valid records from the start (torn tail ignored)."""
        records, _, _ = self.read_from(0)
        return records

    def recover(self) -> Tuple[List[Record], int]:
        """Replay and repair: truncate any torn tail off the file.

        Returns ``(records, dropped_bytes)``; after recovery the file
        ends exactly at the last valid frame, so subsequent appends
        produce a well-formed journal again.
        """
        records, good_offset, clean = self.read_from(0)
        return records, 0 if clean else self.truncate(good_offset)

    def truncate(self, offset: int) -> int:
        """Cut the torn tail past ``offset``, the end of the last valid
        frame; returns the bytes dropped (0 when the file cannot be
        truncated — the next reader stops at the same tail)."""
        try:
            dropped = os.path.getsize(self.path) - offset
            os.truncate(self.path, offset)
        except OSError:
            return 0
        return dropped

    def size(self) -> int:
        """Current byte length (0 when the file does not exist yet)."""
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
