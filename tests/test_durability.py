"""Torn-write-proof persistence primitives (``repro.sim.durability``).

These are the building blocks the crash-safety claims rest on:
``atomic_write`` must never expose a half-written file, the framed
entry format must detect every flavour of on-disk damage (truncation,
bit rot, header loss) rather than decode garbage, exclusive create is
a test-and-set, and every writer that degrades on a failed write
(result cache, trace store, telemetry dumps) does so the same way.
"""

import os
import stat
import warnings

import pytest

from repro.sim.durability import (
    EntryCorrupt,
    atomic_write,
    create_exclusive,
    frame_entry,
    parse_entry,
)
from repro.sim.parallel import SweepCell, SweepRunner
from repro.units import MB

from .conftest import make_spec, partitioned


class TestAtomicWrite:
    def test_writes_bytes_and_str(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write(target, b"\x00\x01binary")
        assert target.read_bytes() == b"\x00\x01binary"
        atomic_write(target, "text payload")
        assert target.read_text() == "text payload"

    def test_replaces_existing_content_atomically(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write(target, "old" * 1000)
        atomic_write(target, "new")
        assert target.read_text() == "new"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "entry.json"
        atomic_write(target, "x")
        assert target.read_text() == "x"

    def test_no_temp_files_left_behind(self, tmp_path):
        target = tmp_path / "entry.json"
        for i in range(5):
            atomic_write(target, f"gen {i}", fsync=(i % 2 == 0))
        assert os.listdir(tmp_path) == ["entry.json"]

    def test_failure_cleans_up_and_keeps_old_contents(self, tmp_path):
        target = tmp_path / "entry.json"
        atomic_write(target, "previous")
        # A non-encodable write fails after the temp file is created;
        # the old contents must survive and the temp file must go.
        class Boom:
            def __bytes__(self):
                raise RuntimeError("no bytes")

        with pytest.raises(TypeError):
            atomic_write(target, Boom())  # type: ignore[arg-type]
        assert target.read_text() == "previous"
        assert os.listdir(tmp_path) == ["entry.json"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o002, 0o664)])
    def test_published_file_honours_the_umask(self, tmp_path, umask, mode):
        """A cache directory shared between uids stays readable: the
        published mode is 0o666 filtered by the umask, not 0o600."""
        target = tmp_path / "entry.json"
        previous = os.umask(umask)
        try:
            atomic_write(target, "x")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == mode


class TestFramedEntries:
    def test_round_trip(self):
        entry = frame_entry({"schema": 4}, b'{"answer": 42}')
        header, payload = parse_entry(entry)
        assert header["schema"] == 4
        assert header["length"] == len(b'{"answer": 42}')
        assert payload == b'{"answer": 42}'

    def test_payload_may_contain_newlines(self):
        payload = b"line one\nline two\n\x00binary\ntail"
        header, parsed = parse_entry(frame_entry({}, payload))
        assert parsed == payload

    def test_truncated_payload_detected(self):
        entry = frame_entry({"schema": 4}, b"x" * 100)
        with pytest.raises(EntryCorrupt, match="header declares"):
            parse_entry(entry[:-40])

    def test_extended_payload_detected(self):
        entry = frame_entry({"schema": 4}, b"x" * 100)
        with pytest.raises(EntryCorrupt, match="header declares"):
            parse_entry(entry + b"trailing garbage")

    def test_bit_flip_detected(self):
        entry = bytearray(frame_entry({"schema": 4}, b"y" * 64))
        entry[-10] ^= 0x40
        with pytest.raises(EntryCorrupt, match="CRC32 mismatch"):
            parse_entry(bytes(entry))

    def test_missing_header_delimiter_detected(self):
        with pytest.raises(EntryCorrupt, match="no header delimiter"):
            parse_entry(b"just bytes, no newline")

    def test_garbage_header_detected(self):
        with pytest.raises(EntryCorrupt, match="unparseable header"):
            parse_entry(b"not json\npayload")

    def test_non_object_header_detected(self):
        with pytest.raises(EntryCorrupt, match="not an object"):
            parse_entry(b'[1, 2]\npayload')

    def test_header_missing_checksum_detected(self):
        with pytest.raises(EntryCorrupt, match="missing length/crc32"):
            parse_entry(b'{"schema": 4}\npayload')


class TestCreateExclusive:
    def test_exactly_one_create_wins(self, tmp_path):
        target = tmp_path / "claim"
        assert create_exclusive(target)
        assert not create_exclusive(target)
        assert target.read_bytes() == b""

    def test_other_errors_propagate(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            create_exclusive(tmp_path / "missing-dir" / "claim")


def _writer_cells():
    """Three cells with three distinct traces (so three store writes)."""
    return [
        SweepCell(
            make_spec(partitioned(size=8 * MB, waves=2), abbr=f"D{i}"),
            "S-64KB",
            seed=i,
        )
        for i in range(3)
    ]


#: (runner options given an unwritable root, the writer that degrades);
#: the result cache's case turns the store off, which would otherwise
#: follow ``REPRO_TRACE_STORE`` into the same unwritable root
WRITERS = {
    "result-cache": (
        lambda root: {"cache_dir": root, "telemetry": False,
                      "trace_store": False},
        lambda runner: runner.cache,
    ),
    "trace-store": (
        lambda root: {"use_cache": False, "trace_store": root,
                      "telemetry": False},
        lambda runner: runner.trace_store,
    ),
    "telemetry": (
        lambda root: {"use_cache": False, "telemetry": True,
                      "telemetry_dir": root},
        lambda runner: runner.telemetry_dumps,
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_degrades_once_and_the_sweep_completes(
    tmp_path, writer
):
    """A root under a regular file cannot be created, so the first write
    fails: one warning, ``write_disabled`` set, no further attempts, and
    every cell still returns its result."""
    options, pick = WRITERS[writer]
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    runner = SweepRunner(jobs=1, **options(blocker / "root"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = runner.run_cells(_writer_cells())
    unwritable = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "not writable" in str(w.message)
    ]
    assert len(unwritable) == 1
    assert pick(runner).write_disabled
    assert all(result is not None for result in results)
    assert runner.stats.simulated == 3 and not runner.stats.failures
