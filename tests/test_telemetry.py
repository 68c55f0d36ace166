"""Telemetry: the pipeline's instrumentation hooks and their plumbing.

Covers the collector itself (histograms, snapshot schema), the
``REPRO_TELEMETRY`` / ``telemetry=`` activation paths, custom
``Instrumentation`` subclasses, the ``SimResult.telemetry`` round trip,
and the sweep runner's per-cell JSON dumps (including the rule that
telemetry never enters the result cache).
"""

import dataclasses
import json

import pytest

from repro.sim.parallel import SweepCell, SweepRunner
from repro.sim.results import SimResult
from repro.sim.runner import run_workload
from repro.sim.telemetry import (
    TELEMETRY_ENV,
    TELEMETRY_SCHEMA_VERSION,
    Histogram,
    Instrumentation,
    TelemetryCollector,
    resolve_instrumentation,
    telemetry_enabled_by_env,
)


# --- Histogram ---


def test_histogram_buckets_and_moments():
    hist = Histogram()
    for value in (0, 0.25, 1, 2, 3, 900):
        hist.record(value)
    snap = hist.to_dict()
    assert snap["count"] == 6
    assert snap["mean"] == pytest.approx(906.25 / 6)
    assert sum(snap["buckets"].values()) == snap["count"]
    # 0 and 0.25 land in the zero bucket; 900 in the (512, 1024] bucket.
    assert snap["buckets"]["0"] == 2
    assert snap["buckets"]["1024"] == 1


def test_empty_histogram():
    snap = Histogram().to_dict()
    assert snap == {"buckets": {}, "count": 0, "mean": 0.0}


def test_histogram_add_equals_repeated_record():
    bulk, looped = Histogram(), Histogram()
    for value, count in [(0, 5), (0.25, 3), (1, 1), (7, 4), (900, 6),
                         (3, 0)]:
        bulk.add(value, count)
        for _ in range(count):
            looped.record(value)
    assert bulk.counts == looped.counts
    assert bulk.total == looped.total
    assert bulk.sum == looped.sum
    assert bulk.mean == looped.mean
    assert bulk.to_dict() == looped.to_dict()


def test_snapshot_orders_keys_canonically():
    """A dump does not depend on which level a run touched first."""
    collector = TelemetryCollector()
    collector.on_translation(0, "walk", 300)
    collector.on_translation(1, "L2", 20)
    collector.on_translation(0, "L1", 0)
    collector.on_data(0, 1, "dram", 400)
    collector.on_data(1, 1, "l1", 1)
    collector.on_data(1, 0, "home_l2", 90)
    snap = collector.snapshot()
    assert list(snap["translation"]["levels"]) == ["L1", "L2", "walk"]
    assert list(snap["data"]["served"]) == ["dram", "home_l2", "l1"]
    assert list(snap["data"]["ring_transfers"]) == ["0->1", "1->0"]


# --- activation ---


@pytest.mark.parametrize(
    "value, expected",
    [("1", True), ("true", True), ("YES", True), (" on ", True),
     ("0", False), ("false", False), ("", False), ("banana", False)],
)
def test_env_flag_spellings(monkeypatch, value, expected):
    monkeypatch.setenv(TELEMETRY_ENV, value)
    assert telemetry_enabled_by_env() is expected


def test_resolve_instrumentation(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    assert resolve_instrumentation() is None
    assert isinstance(resolve_instrumentation(telemetry=True),
                      TelemetryCollector)
    monkeypatch.setenv(TELEMETRY_ENV, "1")
    assert isinstance(resolve_instrumentation(), TelemetryCollector)
    # An explicit instrumentation wins over the environment...
    custom = TelemetryCollector()
    assert resolve_instrumentation(custom) is custom
    # ...and a disabled one selects the fast path outright.
    assert resolve_instrumentation(Instrumentation()) is None


# --- end-to-end collection ---


def test_run_workload_telemetry_snapshot():
    result = run_workload("STE", "S-64KB", telemetry=True)
    telemetry = result.telemetry
    assert telemetry is not None
    assert telemetry["schema"] == TELEMETRY_SCHEMA_VERSION
    assert telemetry["faults"]["count"] == result.page_faults
    per_chiplet = telemetry["faults"]["per_chiplet"]
    assert sum(per_chiplet.values()) == result.page_faults
    assert telemetry["faults"]["place_latency_us"]["count"] == (
        result.page_faults
    )
    # Every access is translated once and served by exactly one level.
    assert sum(telemetry["translation"]["levels"].values()) == (
        result.n_accesses
    )
    assert sum(telemetry["data"]["served"].values()) == result.n_accesses
    assert set(telemetry["data"]["served"]) <= {
        "l1", "remote_cache", "home_l2", "dram",
    }
    machine = telemetry["machine"]
    assert 0.0 <= machine["tlb"]["hit_ratio_l1"] <= 1.0
    assert machine["fault_buffers"]["logged"] >= result.page_faults
    assert telemetry["locality_timeline"], "epoch timeline must be sampled"
    # The snapshot is a JSON document by construction.
    json.dumps(telemetry)


@pytest.mark.parametrize(
    "workload, policy",
    [("STE", "S-64KB"), ("BLK", "CLAP"), ("GPT3", "Ideal_C-NUMA")],
)
def test_telemetry_does_not_change_the_batched_run(workload, policy):
    """Recording telemetry keeps the run on the batched engine and
    leaves every result field, and how it was computed, unchanged."""
    off = run_workload(workload, policy, engine="batched", telemetry=False)
    on = run_workload(workload, policy, engine="batched", telemetry=True)
    assert off.telemetry is None and on.telemetry is not None
    assert dataclasses.replace(on, telemetry=None) == off
    on_payload, off_payload = on.to_dict(), off.to_dict()
    on_payload.pop("telemetry")
    off_payload.pop("telemetry")
    assert on_payload == off_payload
    assert on.faults_dropped == off.faults_dropped
    assert on.fast_path_fraction is not None
    assert on.fast_path_fraction == off.fast_path_fraction
    assert on.fault_batch_fraction == off.fault_batch_fraction


def test_telemetry_off_by_default(monkeypatch):
    monkeypatch.delenv(TELEMETRY_ENV, raising=False)
    result = run_workload("STE", "S-64KB")
    assert result.telemetry is None


def test_custom_instrumentation_receives_hooks():
    from repro.sim.engine import run_simulation
    from repro.sim.runner import resolve_policy
    from repro.trace.suite import workload_by_name

    class _Spy(Instrumentation):
        enabled = True

        def __init__(self):
            self.faults = 0
            self.translations = 0
            self.data = 0
            self.epochs = 0
            self.run_ends = 0

        def on_fault(self, requester, vaddr, alloc_id, place_us):
            self.faults += 1

        def on_translation(self, requester, level, latency):
            self.translations += 1

        def on_data(self, requester, home, served, latency):
            self.data += 1

        def on_epoch(self, epoch, remote_ratio, per_structure):
            self.epochs += 1

        def on_run_end(self, machine):
            self.run_ends += 1

    spy = _Spy()
    result = run_simulation(
        workload_by_name("STE"), resolve_policy("S-64KB"),
        instrumentation=spy,
    )
    assert spy.faults == result.page_faults
    assert spy.translations == result.n_accesses
    assert spy.data == result.n_accesses
    assert spy.epochs >= 1
    assert spy.run_ends == 1
    # A spy without a snapshot contributes no SimResult.telemetry.
    assert result.telemetry is None
    # Per-access hooks need the staged pipeline, whatever the default.
    assert result.fast_path_fraction is None


def test_custom_instrumentation_rejects_an_explicit_batched_engine():
    from repro.sim.engine import run_simulation
    from repro.sim.runner import resolve_policy
    from repro.trace.suite import workload_by_name

    class _Counter(Instrumentation):
        enabled = True

    with pytest.raises(
        ValueError,
        match=r"engine='batched' cannot replay a run with a custom "
        r"Instrumentation \(_Counter\)",
    ):
        run_simulation(
            workload_by_name("STE"), resolve_policy("S-64KB"),
            instrumentation=_Counter(), engine="batched",
        )


def test_a_telemetry_runner_leaves_the_callers_cells_alone(
    tmp_path, monkeypatch
):
    """The runner's telemetry flag reaches each attempt, not the cells:
    a plain runner given the same list records no telemetry and writes
    no ``./telemetry`` dumps."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
    cells = [SweepCell("STE", "S-64KB")]
    recorder = SweepRunner(jobs=1, use_cache=False, telemetry=True,
                           telemetry_dir=tmp_path / "dumps")
    (recorded,) = recorder.run_cells(cells)
    assert recorded.telemetry is not None
    plain = SweepRunner(jobs=1, use_cache=False, telemetry=False)
    (result,) = plain.run_cells(cells)
    assert result.telemetry is None
    assert not (tmp_path / "telemetry").exists()


def test_simresult_roundtrip_preserves_telemetry():
    result = run_workload("STE", "S-64KB", telemetry=True)
    clone = SimResult.from_dict(
        json.loads(json.dumps(result.to_dict()))
    )
    assert clone.telemetry == result.telemetry


# --- sweep-runner integration ---


def test_sweep_runner_dumps_and_strips_telemetry(tmp_path):
    cache_dir = tmp_path / "cache"
    telemetry_dir = tmp_path / "telemetry"
    runner = SweepRunner(
        jobs=1, use_cache=True, cache_dir=cache_dir,
        telemetry=True, telemetry_dir=telemetry_dir,
    )
    (result,) = runner.run_cells([SweepCell("STE", "S-64KB")])
    assert result.telemetry is not None

    dumps = list(telemetry_dir.glob("*.json"))
    assert len(dumps) == 1
    payload = json.loads(dumps[0].read_text())
    assert payload["workload"] == "STE"
    assert payload["policy"] == "S-64KB"
    assert payload["telemetry"]["schema"] == TELEMETRY_SCHEMA_VERSION
    assert payload["fingerprint"]

    # The cache entry was stripped: a telemetry-off run hits it and sees
    # no stale telemetry.
    plain = SweepRunner(jobs=1, use_cache=True, cache_dir=cache_dir,
                        telemetry=False)
    (cached,) = plain.run_cells([SweepCell("STE", "S-64KB")])
    assert plain.stats.cache_hits == 1
    assert cached.telemetry is None
    assert cached.cycles == result.cycles

    # A telemetry run never reads the cache — it must re-simulate to
    # produce its dumps.
    again = SweepRunner(jobs=1, use_cache=True, cache_dir=cache_dir,
                        telemetry=True, telemetry_dir=telemetry_dir)
    again.run_cells([SweepCell("STE", "S-64KB")])
    assert again.stats.cache_hits == 0
    assert again.stats.simulated == 1


def test_sweep_cells_do_not_share_timing_defaults():
    first = SweepCell("STE", "S-64KB")
    second = SweepCell("STE", "S-64KB")
    assert first.timing is not second.timing
