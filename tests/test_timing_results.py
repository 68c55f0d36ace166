"""Tests for the timing model and result records."""

import pytest

from repro.arch.topology import RingTopology
from repro.sim.results import SelectionInfo, SimResult
from repro.sim.timing import CycleCounters, TimingParams, total_cycles
from repro.units import PAGE_2M, PAGE_64K


def make_result(**overrides):
    defaults = dict(
        workload="W",
        policy="P",
        cycles=1000.0,
        n_accesses=100,
        n_warp_instructions=400,
        remote_accesses=25,
        translation_cycles=2000,
        data_cycles=8000,
        l2_misses=40,
        l2_tlb_misses=10,
        page_faults=16,
        migrations=0,
        blocks_consumed=4,
    )
    defaults.update(overrides)
    return SimResult(**defaults)


class TestTiming:
    def test_base_composition(self):
        ring = RingTopology(4)
        counters = CycleCounters(
            n_accesses=100,
            n_warp_instructions=1000,
            translation_cycles=1200,
            data_cycles=2400,
        )
        params = TimingParams(
            data_overlap=24.0, translation_overlap=12.0,
        )
        cycles = total_cycles(counters, ring, params)
        assert cycles == pytest.approx(1000 + 100 + 100)

    def test_remote_transfers_add_bandwidth_cycles(self):
        ring = RingTopology(4)
        base = CycleCounters(n_warp_instructions=1000)
        loaded = CycleCounters(n_warp_instructions=1000, remote_accesses=100)
        params = TimingParams(bandwidth_cycles_per_remote=6.0)
        assert total_cycles(loaded, ring, params) > total_cycles(
            base, ring, params
        )

    def test_larger_ring_charges_more_per_transfer(self):
        counters = CycleCounters(
            n_warp_instructions=1000, remote_accesses=100
        )
        small = total_cycles(counters, RingTopology(4))
        large = total_cycles(counters, RingTopology(8))
        assert large > small

    def test_migration_cycles_additive(self):
        ring = RingTopology(4)
        counters = CycleCounters(
            n_warp_instructions=1000, migration_cycles=500
        )
        assert total_cycles(counters, ring) == pytest.approx(1500)

    def test_translation_serializes_harder_than_data(self):
        ring = RingTopology(4)
        params = TimingParams()
        trans = CycleCounters(n_warp_instructions=0, translation_cycles=1200)
        data = CycleCounters(n_warp_instructions=0, data_cycles=1200)
        assert total_cycles(trans, ring, params) > total_cycles(
            data, ring, params
        )


class TestSimResult:
    def test_derived_metrics(self):
        result = make_result()
        assert result.performance == pytest.approx(0.4)
        assert result.remote_ratio == pytest.approx(0.25)
        assert result.l2_mpki == pytest.approx(100.0)
        assert result.l2_tlb_mpki == pytest.approx(25.0)
        assert result.avg_translation_cycles == pytest.approx(20.0)

    def test_speedup(self):
        fast = make_result(cycles=500.0)
        slow = make_result(cycles=1000.0)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_speedup_requires_same_workload(self):
        with pytest.raises(ValueError):
            make_result().speedup_over(make_result(workload="other"))

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            make_result(cycles=0.0).performance

    def test_structure_remote_ratio(self):
        result = make_result(per_structure_remote={"a": (10, 4)})
        assert result.structure_remote_ratio("a") == pytest.approx(0.4)
        assert result.structure_remote_ratio("missing") == 0.0


class TestSelectionInfo:
    def test_labels(self):
        assert SelectionInfo(PAGE_64K).label == "64KB"
        assert SelectionInfo(PAGE_2M, via_olp=True).label == "2MB*"


class TestSimResultSerialization:
    """to_dict/from_dict must round-trip every field through JSON."""

    def full_result(self):
        from repro.sim.energy import EnergyBreakdown

        return make_result(
            host_refaults=3,
            energy=EnergyBreakdown(
                l1=1.5, l2=2.5, dram=3.5, ring=4.5, translation=5.5
            ),
            selections={
                "a": SelectionInfo(PAGE_64K),
                "b": SelectionInfo(PAGE_2M, via_olp=True),
            },
            per_structure_remote={"a": (10, 4), "b": (6, 0)},
            remote_cache_coverage=0.375,
        )

    def test_round_trip_through_json(self):
        import json

        result = self.full_result()
        rebuilt = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
        # Tuples (not lists) come back, so equality is structural too.
        assert rebuilt.per_structure_remote["a"] == (10, 4)
        assert isinstance(rebuilt.per_structure_remote["a"], tuple)
        assert rebuilt.selections["b"].via_olp is True
        assert rebuilt.energy == result.energy

    def test_round_trip_with_optional_fields_absent(self):
        result = make_result()  # energy/selections/coverage defaults
        rebuilt = SimResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.energy is None
        assert rebuilt.remote_cache_coverage is None

    def test_to_dict_covers_every_field(self):
        """New SimResult fields must be added to the serializer.

        The ``CACHE_EXCLUDED_FIELDS`` (``fast_path_fraction``,
        ``fault_batch_fraction``, ``trace_source``) are deliberately
        absent: they describe how the run was computed (staged vs
        batched replay, generated vs store-attached trace), not what it
        computed, so they stay out of the cached payload — cached,
        staged and batched results of one cell must remain equal.
        """
        from dataclasses import fields

        from repro.sim.results import CACHE_EXCLUDED_FIELDS

        data = self.full_result().to_dict()
        expected = {f.name for f in fields(SimResult)} - set(
            CACHE_EXCLUDED_FIELDS
        )
        assert set(data) == expected

    def test_cache_excluded_fields_stay_out_of_equality(self):
        """A field kept out of the payload must carry
        ``field(compare=False)``, or a result read back from the cache
        would compare unequal to the live one; and every name in the
        two tuples must still be a field."""
        from dataclasses import fields

        from repro.sim.results import (
            CACHE_EXCLUDED_FIELDS,
            CACHE_PAYLOAD_FIELDS,
        )

        names = {f.name for f in fields(SimResult)}
        uncompared = {f.name for f in fields(SimResult) if not f.compare}
        assert uncompared == set(CACHE_EXCLUDED_FIELDS)
        assert not set(CACHE_EXCLUDED_FIELDS) & set(CACHE_PAYLOAD_FIELDS)
        assert set(CACHE_PAYLOAD_FIELDS) <= names

    def test_from_dict_rejects_unknown_fields(self):
        data = self.full_result().to_dict()
        data["not_a_field"] = 1
        with pytest.raises(ValueError):
            SimResult.from_dict(data)

    def test_engine_result_round_trips(self):
        """An end-to-end result (nested energy, selections) survives."""
        import json

        from repro.core.clap import ClapPolicy
        from repro.sim.runner import run_workload

        from .conftest import make_spec, partitioned

        spec = make_spec(
            partitioned(size=8 * 1024 * 1024, waves=2, lines_per_touch=4)
        )
        result = run_workload(spec, ClapPolicy())
        rebuilt = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt == result
