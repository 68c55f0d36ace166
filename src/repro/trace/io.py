"""Trace serialization: save, reload, and zero-copy attach access streams.

Traces are deterministic given (spec, chiplets, seed), but regenerating a
large sweep repeatedly is wasteful and external tools may want the raw
streams.  Two archive formats round-trip a :class:`Trace`:

* **v1** — the original compressed ``.npz`` archive.  Compact and
  portable, but loading decompresses every column into private process
  memory, so N sweep workers loading one trace hold N copies.
* **v2** — an uncompressed, page-aligned arena archive: a fixed-size
  JSON header followed by the trace's arena bytes in exactly the layout
  of :mod:`repro.trace.arena`.  ``load_trace`` memory-maps the data
  section read-only and reconstructs the columns as views — zero
  copies, and every process mapping the same file shares one set of
  physical pages.  This is the format the
  :class:`~repro.trace.store.TraceStore` materializes.

``save_trace`` writes v2 unless the path ends in ``.npz`` (or ``version``
forces it); both writers route through
:func:`repro.sim.durability.atomic_write`, so a crash mid-write can
never leave a torn archive for an attaching worker to map — repro-lint
rule RPR006 enforces the routing statically.

``load_trace`` validates the archive up front — magic, key presence,
array shapes and dtypes, kernel-start bounds, declared lengths and the
data CRC32 — and raises a :class:`~repro.errors.TraceFormatError`
naming exactly what is wrong, instead of letting a corrupt archive
surface later as a cryptic numpy error mid-simulation.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
import zlib
from typing import List, Optional, Union

import numpy as np

from ..errors import TraceFormatError
from ..sim.durability import atomic_write
from . import arena as _arena
from .workload import Trace

#: Latest format version; ``save_trace`` writes it by default.
_FORMAT_VERSION = 2

#: v1 (npz) keys a valid archive contains.
_REQUIRED_KEYS = (
    "version",
    "chiplets",
    "vaddrs",
    "alloc_ids",
    "kernel_starts",
    "n_warp_instructions",
)

#: v2 magic prefix.  The full first line is
#: ``#repro-trace-v2 <header-size>\n`` with a fixed-width decimal size,
#: so a reader can find the JSON header without guessing.
_V2_MAGIC = b"#repro-trace-v2 "
_V2_MAGIC_LINE_LEN = len(_V2_MAGIC) + 12 + 1  # magic + %012d + newline


def save_trace(
    trace: Trace,
    path: Union[str, os.PathLike],
    *,
    version: Optional[int] = None,
) -> None:
    """Write ``trace`` to ``path`` atomically.

    ``version=None`` infers the format from the suffix: ``.npz`` keeps
    the compressed v1 archive (compatibility with existing tooling),
    anything else gets the page-aligned v2 arena archive that
    :func:`load_trace` can memory-map zero-copy.
    """
    if version is None:
        version = 1 if str(path).endswith(".npz") else _FORMAT_VERSION
    if version == 1:
        _save_trace_v1(trace, path)
    elif version == 2:
        save_trace_v2(trace, path)
    else:
        raise ValueError(f"unknown trace format version {version}")


def _save_trace_v1(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """The compressed npz archive, staged in memory and written atomically."""
    buffer = io.BytesIO()
    # Serializing into an in-memory buffer, not an on-disk handle: the
    # durable write is the atomic_write below.
    np.savez_compressed(  # repro-lint: ignore[RPR006]
        buffer,
        version=np.int64(1),
        chiplets=trace.chiplets,
        vaddrs=trace.vaddrs,
        alloc_ids=trace.alloc_ids,
        kernel_starts=np.asarray(trace.kernel_starts, dtype=np.int64),
        n_warp_instructions=np.int64(trace.n_warp_instructions),
    )
    atomic_write(path, buffer.getvalue())


def _v2_header_bytes(trace: Trace) -> bytes:
    """The fixed-size v2 header block for ``trace``."""
    n = len(trace)
    layout, total = _arena.column_layout(n)
    arena = trace.arena
    assert arena is not None  # Trace construction guarantees an arena
    header = {
        "format": "repro-trace",
        "version": 2,
        "n": n,
        "kernel_starts": [int(k) for k in trace.kernel_starts],
        "n_warp_instructions": int(trace.n_warp_instructions),
        "columns": {
            name: {
                "dtype": dtype.name,
                "offset": offset,
                "nbytes": nbytes,
            }
            for name, dtype, offset, nbytes in layout
        },
        "data_length": int(arena.nbytes),
        "data_crc32": zlib.crc32(arena.tobytes()) & 0xFFFFFFFF,
    }
    body = json.dumps(header, sort_keys=True).encode("utf-8")
    header_size = _align(
        _V2_MAGIC_LINE_LEN + len(body) + 1, _arena.ARENA_ALIGN
    )
    magic_line = _V2_MAGIC + b"%012d" % header_size + b"\n"
    padding = b"\0" * (header_size - _V2_MAGIC_LINE_LEN - len(body) - 1)
    return magic_line + body + b"\n" + padding


def _align(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)


def save_trace_v2(trace: Trace, path: Union[str, os.PathLike]) -> None:
    """Write the page-aligned arena archive :func:`load_trace` can mmap.

    The file is ``<header block><arena bytes>`` with the data section
    starting on a 4096-byte boundary; the header carries the column
    layout, the kernel starts, and a CRC32 over the data section that
    :func:`load_trace` verifies before any worker trusts the mapping.
    The whole file goes through one :func:`atomic_write`, so concurrent
    materializers of the same fingerprint race benignly — both write
    identical bytes and the last rename wins.
    """
    assert trace.arena is not None
    atomic_write(path, [_v2_header_bytes(trace), memoryview(trace.arena)])


def v2_data_length(path: Union[str, os.PathLike]) -> int:
    """Arena bytes of the v2 archive at ``path``: the file size minus
    the header block its magic line declares (``OSError`` if unreadable,
    ``ValueError`` if not v2)."""
    with open(path, "rb") as handle:
        magic_line = handle.read(_V2_MAGIC_LINE_LEN)
        size = os.fstat(handle.fileno()).st_size
    if not magic_line.startswith(_V2_MAGIC):
        raise ValueError(f"{os.fspath(path)!r} is not a v2 trace archive")
    return size - int(magic_line[len(_V2_MAGIC):-1])


def _check_stream(report, name: str, array) -> None:
    """One access-stream array must be 1-D and integer-typed."""
    if array.ndim != 1:
        report.append(f"{name} must be 1-D, got shape {array.shape}")
    elif not np.issubdtype(array.dtype, np.integer):
        report.append(f"{name} must be an integer array, got {array.dtype}")


def _check_kernel_starts(problems: list, starts: List[int], n: int) -> None:
    if any(not 0 <= s <= n for s in starts):
        problems.append(
            f"kernel_starts must lie within [0, {n}], got {starts}"
        )
    elif starts != sorted(starts):
        problems.append(f"kernel_starts must be sorted, got {starts}")


def load_trace(
    path: Union[str, os.PathLike], *, mmap: bool = True
) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    v2 archives attach zero-copy by default: the data section is
    memory-mapped read-only and the columns are views over the mapping
    (``mmap=False`` forces a private in-memory copy).  v1 ``.npz``
    archives load exactly as before.

    Raises :class:`TraceFormatError` when the file is not a readable
    archive of either format, is missing keys, mixes array lengths,
    carries the wrong dtypes, is truncated, or fails its data checksum
    — every message names the offending key.
    """
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(_V2_MAGIC))
    except OSError as exc:
        raise TraceFormatError(
            f"cannot read trace archive {os.fspath(path)!r}: {exc}",
            context={"path": os.fspath(path)},
        ) from exc
    if prefix == _V2_MAGIC:
        return _load_trace_v2(path, mmap=mmap)
    return _load_trace_v1(path)


def _v2_error(path, problems: list) -> TraceFormatError:
    return TraceFormatError(
        f"corrupt trace archive {os.fspath(path)!r}: "
        + "; ".join(str(p) for p in problems),
        context={"path": os.fspath(path), "problems": problems},
    )


def _load_trace_v2(path: Union[str, os.PathLike], *, mmap: bool) -> Trace:
    """Validate and attach a v2 arena archive."""
    try:
        file_size = os.stat(path).st_size
        with open(path, "rb") as handle:
            magic_line = handle.read(_V2_MAGIC_LINE_LEN)
            try:
                header_size = int(magic_line[len(_V2_MAGIC):-1])
            except ValueError:
                raise TraceFormatError(
                    f"corrupt trace archive {os.fspath(path)!r}: "
                    "malformed v2 magic line",
                    context={"path": os.fspath(path)},
                ) from None
            head = handle.read(header_size - _V2_MAGIC_LINE_LEN)
    except OSError as exc:
        raise TraceFormatError(
            f"cannot read trace archive {os.fspath(path)!r}: {exc}",
            context={"path": os.fspath(path)},
        ) from exc
    try:
        header = json.loads(head.rstrip(b"\0").decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _v2_error(path, [f"unparseable v2 header: {exc}"]) from None
    if not isinstance(header, dict) or header.get("format") != "repro-trace":
        raise _v2_error(path, ["header is not a repro-trace object"])
    if header.get("version") != 2:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')} "
            f"(expected 2)",
            context={"path": os.fspath(path), "version": header.get("version")},
        )

    problems: list = []
    n = header.get("n")
    data_length = header.get("data_length")
    crc = header.get("data_crc32")
    starts_raw = header.get("kernel_starts")
    n_warp = header.get("n_warp_instructions")
    if not isinstance(n, int) or n < 0:
        problems.append(f"n must be a non-negative integer, got {n!r}")
    if not isinstance(data_length, int) or not isinstance(crc, int):
        problems.append("header missing data_length/data_crc32")
    if not isinstance(starts_raw, list) or not all(
        isinstance(s, int) for s in starts_raw
    ):
        problems.append("kernel_starts must be a list of integers")
    if not isinstance(n_warp, int) or n_warp < 0:
        problems.append(
            f"n_warp_instructions must be >= 0, got {n_warp!r}"
        )
    if problems:
        raise _v2_error(path, problems)

    layout, total = _arena.column_layout(n)
    if data_length != total:
        problems.append(
            f"data_length {data_length} does not match the arena layout "
            f"for n={n} ({total})"
        )
    declared = header.get("columns") or {}
    for name, dtype, offset, nbytes in layout:
        column = declared.get(name)
        if not isinstance(column, dict):
            problems.append(f"header is missing column {name}")
            continue
        if (
            column.get("dtype") != dtype.name
            or column.get("offset") != offset
            or column.get("nbytes") != nbytes
        ):
            problems.append(
                f"column {name} declares "
                f"{column.get('dtype')}@{column.get('offset')}"
                f"+{column.get('nbytes')}, layout expects "
                f"{dtype.name}@{offset}+{nbytes}"
            )
    if file_size != header_size + total:
        problems.append(
            f"file is {file_size} bytes, header + data declare "
            f"{header_size + total} (truncated or trailing garbage)"
        )
    _check_kernel_starts(problems, list(starts_raw), n)
    if problems:
        raise _v2_error(path, problems)

    buffer = np.memmap(path, dtype=np.uint8, mode="r", offset=header_size)
    if (zlib.crc32(buffer.tobytes()) & 0xFFFFFFFF) != crc:
        raise _v2_error(path, ["data section CRC32 mismatch"])
    if not mmap:
        buffer = np.array(buffer)  # private in-memory copy
    views = _arena.views_over(buffer, n)
    return Trace(
        chiplets=views["chiplets"],
        vaddrs=views["vaddrs"],
        alloc_ids=views["alloc_ids"],
        kernel_starts=list(starts_raw),
        n_warp_instructions=n_warp,
        arena=buffer,
        source="archive",
    )


def _load_trace_v1(path: Union[str, os.PathLike]) -> Trace:
    """The original compressed npz loader (format v1)."""
    try:
        archive_ctx = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise TraceFormatError(
            f"cannot read trace archive {os.fspath(path)!r}: {exc}",
            context={"path": os.fspath(path)},
        ) from exc
    with archive_ctx as archive:
        present = set(archive.files)
        missing = [k for k in _REQUIRED_KEYS if k not in present]
        if missing:
            raise TraceFormatError(
                f"trace archive {os.fspath(path)!r} is missing "
                f"key(s) {missing}",
                context={"path": os.fspath(path), "present": sorted(present)},
            )
        version = int(archive["version"])
        if version != 1:
            raise TraceFormatError(
                f"unsupported trace format version {version} "
                f"(expected 1)",
                context={"path": os.fspath(path), "version": version},
            )

        chiplets = archive["chiplets"]
        vaddrs = archive["vaddrs"]
        alloc_ids = archive["alloc_ids"]
        kernel_starts = archive["kernel_starts"]

        problems: list = []
        for name, array in (
            ("chiplets", chiplets),
            ("vaddrs", vaddrs),
            ("alloc_ids", alloc_ids),
            ("kernel_starts", kernel_starts),
        ):
            _check_stream(problems, name, array)
        if not problems:
            n = len(vaddrs)
            for name, array in (
                ("chiplets", chiplets),
                ("alloc_ids", alloc_ids),
            ):
                if len(array) != n:
                    problems.append(
                        f"{name} has {len(array)} entries but vaddrs has {n}"
                    )
            starts = [int(k) for k in kernel_starts]
            _check_kernel_starts(problems, starts, n)
            n_warp = int(archive["n_warp_instructions"])
            if n_warp < 0:
                problems.append(
                    f"n_warp_instructions must be >= 0, got {n_warp}"
                )
        if problems:
            raise TraceFormatError(
                f"corrupt trace archive {os.fspath(path)!r}: "
                + "; ".join(problems),
                context={"path": os.fspath(path), "problems": problems},
            )
        return Trace(
            chiplets=chiplets,
            vaddrs=vaddrs,
            alloc_ids=alloc_ids,
            kernel_starts=starts,
            n_warp_instructions=n_warp,
            source="archive",
        )
