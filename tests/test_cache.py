"""Tests for the data caches and remote-caching schemes."""

import copy
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.remote_cache import (
    NubaCache,
    SacCache,
    make_remote_cache,
)
from repro.config import baseline_config
from repro.sim.machine import Machine


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(16 * 128, ways=4)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(64)  # same 128B line
        assert cache.hits == 2

    def test_lru_within_set(self):
        cache = SetAssociativeCache(2 * 128, ways=2)
        # Two-entry fully-mapped cache: fill, refresh, insert third.
        cache.access(0)
        cache.access(128 * 1000)
        cache.access(0)
        cache.access(128 * 2000)  # evicts the LRU line
        assert cache.access(0)
        assert not cache.probe(128 * 1000)

    def test_probe_does_not_fill(self):
        cache = SetAssociativeCache(16 * 128)
        assert not cache.probe(0)
        assert not cache.access(0)  # still a miss: probe didn't fill

    def test_invalidate_range_small(self):
        cache = SetAssociativeCache(64 * 128)
        cache.access(0)
        cache.access(128)
        cache.access(4096)
        assert cache.invalidate_range(0, 256) == 2
        assert not cache.probe(0)
        assert cache.probe(4096)

    def test_invalidate_range_large_scan_path(self):
        cache = SetAssociativeCache(16 * 128)
        for i in range(8):
            cache.access(i * 128)
        dropped = cache.invalidate_range(0, 64 * 1024 * 1024)
        assert dropped == 8
        assert cache.probe(0) is False

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(64)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, line_size=100)

    def test_hit_rate_and_reset(self):
        cache = SetAssociativeCache(16 * 128)
        cache.access(0)
        cache.access(0)
        assert cache.hit_rate == 0.5
        cache.reset_stats()
        assert cache.accesses == 0

    @given(
        lines=st.lists(st.integers(0, 1000), min_size=1, max_size=300)
    )
    @settings(max_examples=30, deadline=None)
    def test_property_occupancy_bounded(self, lines):
        cache = SetAssociativeCache(32 * 128, ways=4)
        for line in lines:
            cache.access(line * 128)
        resident = sum(len(s) for s in cache._sets)
        assert resident <= cache.capacity_lines


def _filled_cache():
    """A 64-line, 16-set cache filled past capacity in a scrambled
    order, so sets hold lines in a non-trivial LRU order."""
    cache = SetAssociativeCache(64 * 128, ways=4)
    for i in range(400):
        cache.access(((i * 37) % 200) * 128)
    return cache


def _lines(first, count):
    return (first * 128, count * 128)


#: Unsorted, overlapping, adjacent and duplicate ranges whose union is
#: 21 lines (probe branch) or 115 lines (scan branch) of a 64-line cache.
FLUSH_CASES = {
    "probe": [
        _lines(20, 4), _lines(0, 8), _lines(4, 8), _lines(12, 2),
        _lines(0, 8), _lines(150, 3),
    ],
    "scan": [
        _lines(100, 50), _lines(0, 30), _lines(20, 20), _lines(40, 20),
        _lines(0, 30), _lines(190, 5),
    ],
}


class TestInvalidateRanges:
    @pytest.mark.parametrize("branch", sorted(FLUSH_CASES))
    def test_matches_one_flush_per_range(self, branch):
        ranges = FLUSH_CASES[branch]
        batched = _filled_cache()
        union = {
            line
            for paddr, size in ranges
            for line in range(paddr // 128, (paddr + size) // 128)
        }
        assert (len(union) > batched.capacity_lines) == (branch == "scan")
        one_by_one = copy.deepcopy(batched)
        dropped = sum(one_by_one.invalidate_range(*r) for r in ranges)
        assert dropped > 0
        assert batched.invalidate_ranges(ranges) == dropped
        assert [list(s) for s in batched._sets] == [
            list(s) for s in one_by_one._sets
        ]

    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, 220), st.integers(1, 60)),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_one_flush_per_range(self, ranges):
        ranges = [_lines(first, count) for first, count in ranges]
        batched = _filled_cache()
        one_by_one = copy.deepcopy(batched)
        dropped = sum(one_by_one.invalidate_range(*r) for r in ranges)
        assert batched.invalidate_ranges(ranges) == dropped
        assert [list(s) for s in batched._sets] == [
            list(s) for s in one_by_one._sets
        ]


class TestMachineFlushBatch:
    def _filled_machine(self):
        machine = Machine(baseline_config())
        for cache in machine.l1_caches + machine.l2_caches:
            for line in range(64):
                cache.access(line * 128)
        return machine

    def _resident(self, machine, paddr):
        return [c.probe(paddr) for c in machine.l1_caches + machine.l2_caches]

    def test_flush_outside_a_batch_is_immediate(self):
        machine = self._filled_machine()
        machine.flush_data_caches_range(0, 4096)
        assert not any(self._resident(machine, 0))
        assert all(self._resident(machine, 4096))

    def test_flush_inside_a_batch_waits_for_the_exit(self):
        machine = self._filled_machine()
        with machine.flush_batch():
            machine.flush_data_caches_range(0, 4096)
            machine.flush_data_caches_range(6144, 128)
            assert all(self._resident(machine, 0))
            assert all(self._resident(machine, 6144))
        assert not any(self._resident(machine, 0))
        assert not any(self._resident(machine, 6144))
        assert all(self._resident(machine, 4096))
        # The batch is closed: the next flush is immediate again.
        machine.flush_data_caches_range(4096, 128)
        assert not any(self._resident(machine, 4096))


class TestRemoteCaches:
    def test_nuba_inserts_everything(self):
        cache = NubaCache(baseline_config())
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.coverage == 0.5

    def test_sac_requires_reuse_before_inserting(self):
        cache = SacCache(baseline_config())
        assert not cache.access(0)   # first touch: filtered, not inserted
        assert not cache.access(0)   # second touch: inserted now
        assert cache.access(0)       # third touch: hit

    def test_sac_smaller_than_nuba(self):
        cfg = baseline_config()
        assert (
            SacCache(cfg).cache.capacity_lines
            < NubaCache(cfg).cache.capacity_lines
        )

    def test_factory(self):
        cfg = baseline_config()
        assert make_remote_cache(None, cfg) is None
        assert isinstance(make_remote_cache("nuba", cfg), NubaCache)
        assert isinstance(make_remote_cache("SAC", cfg), SacCache)
        with pytest.raises(ValueError):
            make_remote_cache("bogus", cfg)


class _LruModel:
    """Reference model: exact allocate-on-miss LRU with one
    ``OrderedDict`` per set (oldest first) and the caches' set hash."""

    def __init__(self, num_sets, ways):
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_of(self, line):
        hashed = (line * 0x9E3779B1) & 0xFFFFFFFF
        return self.sets[(hashed >> 16) % len(self.sets)]

    def access(self, line, fill=True):
        entries = self._set_of(line)
        if line in entries:
            entries.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if fill:
            if len(entries) >= self.ways:
                entries.popitem(last=False)
            entries[line] = True
        return False

    def invalidate(self, first, last):
        for entries in self.sets:
            for line in [x for x in entries if first <= x <= last]:
                del entries[line]


class _SacFilterModel:
    """SAC's reuse filter: a line is inserted on its second miss among
    the last ``entries`` distinct missing lines."""

    def __init__(self, entries):
        self.entries = entries
        self.seen = OrderedDict()

    def should_insert(self, line):
        if line in self.seen:
            self.seen.move_to_end(line)
            return True
        if len(self.seen) >= self.entries:
            self.seen.popitem(last=False)
        self.seen[line] = True
        return False


#: An access to one of 40 lines, or a flush of ``count`` lines from
#: ``first``: few enough lines that four sets see hits, evictions and
#: refreshes.
cache_op = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 39)),
    st.tuples(st.just("flush"), st.integers(0, 39), st.integers(1, 12)),
)


class TestListSetsMatchReferenceLru:
    @given(ops=st.lists(cache_op, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_caches_match_an_ordered_dict_lru(self, ops):
        plain = SetAssociativeCache(8 * 128, ways=2)
        nuba = NubaCache(baseline_config())
        sac = SacCache(baseline_config())
        for scheme in (nuba, sac):
            scheme.cache = SetAssociativeCache(12 * 128, ways=3)
        # A filter smaller than the line pool, so it evicts too.
        sac.FILTER_ENTRIES = 6
        caches = {
            "plain": (plain, _LruModel(4, 2)),
            "nuba": (nuba.cache, _LruModel(4, 3)),
            "sac": (sac.cache, _LruModel(4, 3)),
        }
        sac_filter = _SacFilterModel(6)
        for op in ops:
            if op[0] == "flush":
                _, first, count = op
                ranges = [(first * 128, count * 128)]
                for cache, model in caches.values():
                    cache.invalidate_ranges(ranges)
                    model.invalidate(first, first + count - 1)
            else:
                line = op[1]
                paddr = line * 128 + 5
                _, model = caches["plain"]
                assert plain.access(paddr) == model.access(line)
                _, model = caches["nuba"]
                assert nuba.access(paddr) == model.access(line)
                _, model = caches["sac"]
                in_model = line in model._set_of(line)
                assert sac.access(paddr) == model.access(
                    line,
                    fill=in_model or sac_filter.should_insert(line),
                )
            for cache, model in caches.values():
                assert (cache.hits, cache.misses) == (
                    model.hits,
                    model.misses,
                )
                assert cache._sets == [list(s) for s in model.sets]
        assert list(sac._seen) == list(sac_filter.seen)
        for scheme, key in ((nuba, "nuba"), (sac, "sac")):
            model = caches[key][1]
            assert scheme.remote_hits == model.hits
            assert scheme.remote_lookups == model.hits + model.misses
