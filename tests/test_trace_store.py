"""Tests for the shared zero-copy trace store."""

import multiprocessing
import warnings

import numpy as np
import pytest

from repro.sim.coordinator import CoordinatorConfig
from repro.sim.parallel import SweepCell, SweepRunner
from repro.trace.store import (
    TraceStore,
    resolve_trace_store,
    trace_fingerprint,
)
from repro.trace.suite import workload_by_name
from repro.units import MB

from .conftest import make_spec, partitioned, shared


@pytest.fixture
def spec():
    return make_spec(
        partitioned(size=8 * MB, group=2, waves=2, lines_per_touch=4),
        shared(size=4 * MB, waves=2, lines_per_touch=4),
    )


class TestFingerprint:
    def test_deterministic(self, spec):
        assert trace_fingerprint(spec, 4, 7) == trace_fingerprint(spec, 4, 7)

    def test_sensitive_to_every_input(self, spec):
        base = trace_fingerprint(spec, 4, 7)
        assert trace_fingerprint(spec, 2, 7) != base
        assert trace_fingerprint(spec, 4, 8) != base
        other = make_spec(partitioned(size=8 * MB))
        assert trace_fingerprint(other, 4, 7) != base


class TestResolve:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert resolve_trace_store(None) is None

    def test_env_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "0")
        assert resolve_trace_store(None) is None
        monkeypatch.setenv("REPRO_TRACE_STORE", "1")
        assert resolve_trace_store(None) is not None
        monkeypatch.setenv("REPRO_TRACE_STORE", "/some/dir")
        assert str(resolve_trace_store(None)) == "/some/dir"

    def test_explicit_value_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "/env/dir")
        assert str(resolve_trace_store("/flag/dir")) == "/flag/dir"
        assert resolve_trace_store(False) is None
        assert resolve_trace_store("off") is None

    @pytest.mark.parametrize("source", ["argument", "env"])
    def test_default_root_follows_the_runner_cache_dir(
        self, tmp_path, monkeypatch, source
    ):
        """"On" means ``<cache>/traces`` of the runner's own cache root,
        not of the default one."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        if source == "env":
            monkeypatch.setenv("REPRO_TRACE_STORE", "1")
            runner = SweepRunner(jobs=1, cache_dir=tmp_path / "cacheX")
        else:
            monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
            runner = SweepRunner(
                jobs=1, cache_dir=tmp_path / "cacheX", trace_store=True
            )
        assert runner.trace_store is not None
        assert runner.trace_store.root == tmp_path / "cacheX" / "traces"


class TestStore:
    def test_materialize_then_attach(self, spec, tmp_path):
        store = TraceStore(tmp_path)
        fingerprint, nbytes, created = store.ensure(spec, 4, 7)
        assert created and nbytes > 0
        assert store.path_for(fingerprint).exists()

        trace = store.attach(fingerprint)
        assert trace is not None
        assert trace.source == "store"
        assert isinstance(trace.arena, np.memmap)
        assert not trace.vaddrs.flags.writeable
        assert trace.nbytes == nbytes

    def test_ensure_is_idempotent(self, spec, tmp_path):
        store = TraceStore(tmp_path)
        fp1, _, created1 = store.ensure(spec, 4, 7)
        fp2, _, created2 = store.ensure(spec, 4, 7)
        assert fp1 == fp2
        assert created1 and not created2
        assert len(store) == 1

    def test_attach_missing_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.attach("0" * 64) is None

    def test_attached_trace_matches_generated(self, spec, tmp_path):
        from repro.trace.workload import Workload

        store = TraceStore(tmp_path)
        fingerprint, _, _ = store.ensure(spec, 4, 7)
        trace = store.attach(fingerprint)
        direct = Workload(spec, 4, seed=7).build_trace(7)
        assert np.array_equal(trace.chiplets, direct.chiplets)
        assert np.array_equal(trace.vaddrs, direct.vaddrs)
        assert np.array_equal(trace.alloc_ids, direct.alloc_ids)
        assert trace.kernel_starts == direct.kernel_starts

    def test_corrupt_archive_quarantined_and_regenerated(
        self, spec, tmp_path
    ):
        store = TraceStore(tmp_path)
        fingerprint, _, _ = store.ensure(spec, 4, 7)
        path = store.path_for(fingerprint)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))

        with pytest.warns(RuntimeWarning, match="quarantined corrupt trace"):
            assert store.attach(fingerprint) is None
        assert store.quarantined == 1
        assert not path.exists()
        assert any(store.corrupt_dir.iterdir())

        # The next ensure re-materializes, and the attach succeeds.
        _, _, created = store.ensure(spec, 4, 7)
        assert created
        trace = store.attach(fingerprint)
        assert trace is not None and len(trace) > 0

    def test_warm_ensure_reports_the_arena_bytes(self, spec, tmp_path):
        """An existing archive reports its arena length, not its file
        size (which adds the page-aligned header block)."""
        store = TraceStore(tmp_path)
        fingerprint, cold, _ = store.ensure(spec, 4, 7)
        _, warm, created = store.ensure(spec, 4, 7)
        assert not created
        assert warm == cold == store.attach(fingerprint).nbytes
        assert store.path_for(fingerprint).stat().st_size > warm

    def test_unwritable_root_degrades_to_generation(
        self, spec, tmp_path, monkeypatch
    ):
        # chmod tricks do not bind when the suite runs as root, so fail
        # the write at the API seam instead.
        def broken_writer(trace, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.trace.io.save_trace_v2", broken_writer)
        store = TraceStore(tmp_path)
        with pytest.warns(RuntimeWarning, match="not writable"):
            fingerprint, _, created = store.ensure(spec, 4, 7)
        assert store.write_disabled and not created
        # The attach misses, so the caller regenerates privately.
        assert store.attach(fingerprint) is None
        # Subsequent calls stay silent (warned once, no writes).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not store.ensure(spec, 4, 7)[2]
        assert store.attach(fingerprint) is None
        assert len(store) == 0


def _materialize_worker(root, abbr, chiplets, seed, queue):
    spec = workload_by_name(abbr)
    store = TraceStore(root)
    fingerprint, _, created = store.ensure(spec, chiplets, seed)
    trace = store.attach(fingerprint)
    queue.put((created, len(trace), int(trace.vaddrs[-1])))


class TestConcurrentMaterialization:
    def test_two_processes_race_to_one_fingerprint(self, tmp_path):
        """Concurrent materializers are benign: identical bytes, atomic
        rename, and both end up with the same trace."""
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_materialize_worker,
                args=(str(tmp_path), "STE", 4, 7, queue),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
        # Exactly one archive exists and both processes saw equal traces.
        store = TraceStore(tmp_path)
        assert len(store) == 1
        lengths = {n for _, n, _ in outcomes}
        tails = {t for _, _, t in outcomes}
        assert len(lengths) == 1 and len(tails) == 1


class TestSweepIntegration:
    def _cells(self, spec):
        return [
            SweepCell(spec, "CLAP", seed=3),
            SweepCell(spec, "IDEAL", seed=3),
            SweepCell("STE", "CLAP", seed=3),
        ]

    @pytest.mark.parametrize("engine", ["staged", "batched"])
    def test_store_on_matches_store_off(
        self, spec, tmp_path, monkeypatch, engine
    ):
        monkeypatch.setenv("REPRO_ENGINE", engine)
        off = SweepRunner(
            jobs=1, use_cache=False, trace_store=False
        ).run_cells(self._cells(spec))
        runner = SweepRunner(
            jobs=1, use_cache=False, trace_store=tmp_path / "traces"
        )
        on = runner.run_cells(self._cells(spec))
        assert on == off
        assert runner.stats.traces_materialized == 2
        assert runner.stats.traces_attached == 3
        assert runner.stats.trace_bytes_shared > 0

    def test_shared_bytes_are_equal_on_a_cold_and_a_warm_store(
        self, spec, tmp_path
    ):
        shared = []
        for _ in range(2):
            runner = SweepRunner(
                jobs=1, use_cache=False, trace_store=tmp_path / "traces"
            )
            runner.run_cells(self._cells(spec))
            shared.append(runner.stats.trace_bytes_shared)
        assert shared[0] == shared[1] > 0

    def test_pool_workers_attach(self, spec, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        runner = SweepRunner(
            jobs=2, use_cache=False, trace_store=tmp_path / "traces"
        )
        results = runner.run_cells(self._cells(spec))
        assert all(r is not None for r in results)
        assert runner.stats.traces_attached == 3
        line = runner.stats.summary_line()
        assert "traces materialized" in line and "attached" in line

    def test_store_counters_stay_out_of_the_cache(self, spec, tmp_path):
        """trace_source is computed-how metadata: cache-excluded, so a
        store-on run and a cached store-off result stay equal."""
        cache_dir = tmp_path / "cache"
        first = SweepRunner(jobs=1, cache_dir=cache_dir)
        (off,) = first.run_cells([SweepCell(spec, "CLAP", seed=3)])
        second = SweepRunner(
            jobs=1, cache_dir=cache_dir, trace_store=tmp_path / "traces"
        )
        (hit,) = second.run_cells([SweepCell(spec, "CLAP", seed=3)])
        assert second.stats.cache_hits == 1
        assert hit == off
        assert hit.trace_source is None  # served from cache, not replayed

    def test_coordinator_runners_share_the_store(self, tmp_path):
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / "cache",
            trace_store=tmp_path / "traces",
            coordinator=CoordinatorConfig(runners=2),
        )
        cells = [
            SweepCell("STE", "CLAP", seed=3),
            SweepCell("STE", "IDEAL", seed=3),
        ]
        results = runner.run_cells(cells)
        assert all(r is not None for r in results)
        # One distinct fingerprint: the parent materializes it before
        # spawning, and both runners attach.
        assert runner.stats.traces_materialized == 1
        assert runner.stats.traces_attached == 2
        assert len(TraceStore(tmp_path / "traces")) == 1
        baseline = SweepRunner(jobs=1, use_cache=False).run_cells(
            [
                SweepCell("STE", "CLAP", seed=3),
                SweepCell("STE", "IDEAL", seed=3),
            ]
        )
        assert results == baseline
