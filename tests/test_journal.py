"""CRC-framed append-only journal (``repro.sim.journal``).

The journal is the coordinator's source of truth for what a sweep has
completed, so its recovery semantics carry real weight: a crash
mid-append must cost at most the record being written, never the
records before it, and tailing readers must stop cleanly at an
in-flight append instead of consuming garbage.
"""

import os

import pytest

from repro.sim.journal import MAX_RECORD_BYTES, Journal


def make_journal(tmp_path, records=()):
    journal = Journal(tmp_path / "journal.bin")
    for record in records:
        journal.append(record)
    return journal


class TestAppendReplay:
    def test_round_trip_preserves_records_in_order(self, tmp_path):
        records = [{"kind": "done", "fp": f"k{i}", "n": i} for i in range(20)]
        journal = make_journal(tmp_path, records)
        assert journal.replay() == records

    def test_interleaved_writers_share_one_file(self, tmp_path):
        # Two Journal instances on the same path model two runner
        # processes: O_APPEND framing interleaves whole records.
        a = Journal(tmp_path / "journal.bin")
        b = Journal(tmp_path / "journal.bin")
        for i in range(10):
            (a if i % 2 == 0 else b).append({"writer": i % 2, "i": i})
        replayed = a.replay()
        assert [r["i"] for r in replayed] == list(range(10))

    def test_oversized_record_rejected_without_writing(self, tmp_path):
        journal = make_journal(tmp_path, [{"ok": 1}])
        with pytest.raises(ValueError, match="frame bound"):
            journal.append({"blob": "x" * (MAX_RECORD_BYTES + 1)})
        assert journal.replay() == [{"ok": 1}]

    def test_missing_file_replays_empty(self, tmp_path):
        journal = Journal(tmp_path / "nope.bin")
        assert journal.replay() == []
        assert journal.size() == 0


class TestIncrementalTailing:
    def test_read_from_resumes_at_offset(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}, {"i": 1}])
        records, offset, clean = journal.read_from(0)
        assert [r["i"] for r in records] == [0, 1] and clean
        records, offset2, clean = journal.read_from(offset)
        assert records == [] and offset2 == offset and clean
        journal.append({"i": 2})
        records, offset3, clean = journal.read_from(offset2)
        assert [r["i"] for r in records] == [2] and clean

    def test_in_flight_append_reported_unclean(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}])
        good = journal.size()
        # Simulate a writer that has issued only part of its frame.
        with open(journal.path, "ab") as fh:
            fh.write(b"\x40\x00")
        records, offset, clean = journal.read_from(0)
        assert [r["i"] for r in records] == [0]
        assert offset == good and not clean


class TestRecovery:
    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_truncated_tail_dropped_and_repaired(self, tmp_path, cut):
        journal = make_journal(tmp_path, [{"i": i} for i in range(5)])
        size = journal.size()
        os.truncate(journal.path, size - cut)
        records, dropped = journal.recover()
        assert [r["i"] for r in records] == [0, 1, 2, 3]
        assert dropped > 0
        # The file now ends at the last good frame: appends work again.
        journal.append({"i": 99})
        assert [r["i"] for r in journal.replay()] == [0, 1, 2, 3, 99]

    def test_bit_flipped_tail_record_dropped(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}, {"i": 1}])
        data = bytearray(journal.path.read_bytes())
        data[-3] ^= 0x20  # damage the final record's payload
        journal.path.write_bytes(bytes(data))
        records, dropped = journal.recover()
        assert [r["i"] for r in records] == [0]
        assert dropped > 0

    def test_garbage_length_field_treated_as_corruption(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}])
        with open(journal.path, "ab") as fh:
            fh.write(b"\xff\xff\xff\xff\xff\xff\xff\xffnonsense")
        records, dropped = journal.recover()
        assert [r["i"] for r in records] == [0]
        assert dropped > 0
        assert journal.replay() == [{"i": 0}]

    def test_truncate_cuts_at_a_known_good_offset(self, tmp_path):
        # A tailing reader already knows where the last good frame ends.
        journal = make_journal(tmp_path, [{"i": 0}, {"i": 1}])
        with open(journal.path, "ab") as fh:
            fh.write(b"\x40\x00torn")
        _, offset, clean = journal.read_from(0)
        assert not clean
        assert journal.truncate(offset) == 6
        assert journal.size() == offset
        assert journal.read_from(0)[2]
        assert journal.truncate(offset) == 0

    def test_torn_frame_before_later_records_hides_nothing(self, tmp_path):
        # A writer died mid-frame and another kept appending after it:
        # the torn bytes are skipped, not taken for the tail.
        journal = make_journal(tmp_path, [{"kind": "done", "fp": "a"}])
        with open(journal.path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\x12\x34")
        journal.append({"kind": "done", "fp": "b"})
        size = journal.size()
        records, offset, clean = journal.read_from(0)
        assert [r["fp"] for r in records] == ["a", "b"]
        assert offset == size and clean
        assert journal.skipped_bytes == 6
        records, dropped = journal.recover()
        assert [r["fp"] for r in records] == ["a", "b"]
        assert dropped == 0 and journal.size() == size

    def test_torn_tail_after_a_skipped_frame_is_still_cut(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}])
        with open(journal.path, "ab") as fh:
            fh.write(b"\xff\xff\xff\xff")
        journal.append({"i": 1})
        good = journal.size()
        with open(journal.path, "ab") as fh:
            fh.write(b"\x40\x00torn")
        records, offset, clean = journal.read_from(0)
        assert [r["i"] for r in records] == [0, 1]
        assert offset == good and not clean
        assert journal.recover()[1] == 6
        assert journal.size() == good

    def test_clean_journal_recovers_without_drops(self, tmp_path):
        journal = make_journal(tmp_path, [{"i": 0}])
        records, dropped = journal.recover()
        assert records == [{"i": 0}] and dropped == 0
