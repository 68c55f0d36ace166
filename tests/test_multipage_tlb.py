"""Tests for the multi-page TLB design (Section 4.7 discussion)."""

import pytest

from repro.core.clap import ClapPolicy
from repro.policies import StaticPaging
from repro.sim.engine import run_simulation
from repro.tlb.multipage import MultiPageTLB
from repro.units import MB, PAGE_2M, PAGE_4K, PAGE_64K

from .conftest import make_spec, partitioned


class TestMultiPageTLB:
    def test_mixed_sizes_coexist(self):
        tlb = MultiPageTLB(entries=8)
        tlb.insert(0, PAGE_64K, PAGE_64K, 1)
        tlb.insert(0, PAGE_2M, PAGE_2M, 1)
        assert tlb.lookup(0, PAGE_64K)
        assert tlb.lookup(0, PAGE_2M)
        assert tlb.occupancy == 2

    def test_same_tag_different_size_are_distinct(self):
        tlb = MultiPageTLB(entries=4)
        tlb.insert(0, PAGE_64K, PAGE_64K, 1)
        assert not tlb.lookup(0, PAGE_4K)

    def test_shared_capacity_small_pages_evict_large(self):
        """The multi-page trade-off: a flood of small-page entries can
        evict the large-page entry — impossible with split TLBs."""
        tlb = MultiPageTLB(entries=4)
        tlb.insert(0, PAGE_2M, PAGE_2M, 1)
        for i in range(1, 64):
            tlb.insert(i * PAGE_64K, PAGE_64K, PAGE_64K, 1)
        assert not tlb.lookup(0, PAGE_2M)

    def test_valid_bit_merge(self):
        tlb = MultiPageTLB(entries=4)
        tlb.insert(0, PAGE_64K, 4 * PAGE_64K, 0b0001)
        tlb.insert(0, PAGE_64K, 4 * PAGE_64K, 0b0100)
        assert tlb.lookup(0, PAGE_64K, page_bit=2)
        assert not tlb.lookup(0, PAGE_64K, page_bit=1)

    def test_invalidate_and_flush(self):
        tlb = MultiPageTLB(entries=4)
        tlb.insert(0, PAGE_64K, PAGE_64K, 1)
        assert tlb.invalidate(0, PAGE_64K)
        assert not tlb.invalidate(0, PAGE_64K)
        tlb.insert(0, PAGE_64K, PAGE_64K, 1)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPageTLB(entries=0)
        with pytest.raises(ValueError):
            MultiPageTLB(entries=6, ways=4)
        with pytest.raises(ValueError):
            MultiPageTLB(entries=4).insert(0, PAGE_64K, PAGE_64K, 0)


class TestEndToEnd:
    def test_clap_runs_on_multi_page_tlbs(self):
        spec = make_spec(
            partitioned(size=16 * MB, group=4, waves=3, lines_per_touch=6)
        )
        split = run_simulation(spec, ClapPolicy())
        merged = run_simulation(
            spec, ClapPolicy(), multi_page_tlb=True, engine="staged"
        )
        # Same placement decisions, comparable performance.
        assert merged.selections == split.selections
        assert merged.remote_ratio == split.remote_ratio
        assert (
            abs(merged.performance / split.performance - 1.0) < 0.15
        )

    def test_static_paging_runs_on_multi_page_tlbs(self):
        spec = make_spec(
            partitioned(size=16 * MB, group=4, waves=2, lines_per_touch=4)
        )
        result = run_simulation(
            spec, StaticPaging(PAGE_2M), multi_page_tlb=True,
            engine="staged",
        )
        assert result.l2_tlb_misses > 0

    def test_an_explicit_batched_request_is_rejected(self):
        spec = make_spec(partitioned(size=4 * MB, waves=1))
        with pytest.raises(
            ValueError, match="engine='batched' cannot replay a run with "
            "multi_page_tlb=True"
        ):
            run_simulation(
                spec, StaticPaging(PAGE_64K), multi_page_tlb=True,
                engine="batched",
            )

    def test_an_unset_engine_is_refused(self):
        """The default engine is batched, so a multi-page-TLB run must
        ask for the staged pipeline; it is never switched to it."""
        spec = make_spec(partitioned(size=4 * MB, waves=1))
        with pytest.raises(ValueError, match="pass engine='staged'"):
            run_simulation(
                spec, StaticPaging(PAGE_64K), multi_page_tlb=True
            )
        staged = run_simulation(
            spec, StaticPaging(PAGE_64K), multi_page_tlb=True,
            engine="staged",
        )
        assert staged.fast_path_fraction is None  # the staged pipeline
