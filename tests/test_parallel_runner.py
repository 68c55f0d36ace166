"""The SweepRunner invariants the experiment layer relies on.

Serial, parallel and cached executions of the same sweep must produce
identical ``SimResult`` lists (the cells are deterministic in their
inputs), and the content-addressed cache key must change whenever any
result-determining input — workload, policy, config, timing, seed —
changes.
"""

import json
import warnings

import pytest

from repro.config import GPUConfig
from repro.core.clap import ClapPolicy
from repro.policies import StaticPaging
from repro.sim.parallel import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    SweepCell,
    SweepRunner,
    cell_fingerprint,
    default_runner,
    resolve_jobs,
    set_default_runner,
)
from repro.sim.runner import run_workload
from repro.sim.timing import TimingParams
from repro.trace.suite import workload_by_name
from repro.units import MB, PAGE_2M, PAGE_64K

from .conftest import make_spec, partitioned, shared

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def small_spec(abbr="PAR"):
    return make_spec(
        partitioned(size=8 * MB, waves=2, lines_per_touch=4),
        shared(size=4 * MB, waves=2, lines_per_touch=4),
        abbr=abbr,
    )


def sweep_cells():
    """A small mixed sweep: two workloads x two policies."""
    return [
        SweepCell(spec, policy())
        for spec in (small_spec("PAR"), small_spec("SEC"))
        for policy in (lambda: StaticPaging(PAGE_64K), ClapPolicy)
    ]


# --- determinism under fan-out ----------------------------------------


def test_serial_and_parallel_results_identical():
    serial = SweepRunner(jobs=1, use_cache=False).run_cells(sweep_cells())
    fanned = SweepRunner(jobs=2, use_cache=False).run_cells(sweep_cells())
    assert serial == fanned
    assert [r.to_dict() for r in serial] == [r.to_dict() for r in fanned]


def test_cached_results_identical_to_fresh(tmp_path):
    fresh = SweepRunner(jobs=1, use_cache=False).run_cells(sweep_cells())

    cold = SweepRunner(jobs=1, cache_dir=tmp_path)
    assert cold.run_cells(sweep_cells()) == fresh
    assert cold.stats.simulated == 4
    assert cold.stats.cache_hits == 0

    warm = SweepRunner(jobs=1, cache_dir=tmp_path)
    assert warm.run_cells(sweep_cells()) == fresh
    assert warm.stats.simulated == 0
    assert warm.stats.cache_hits == 4
    assert warm.stats.hit_ratio == 1.0


def test_parallel_run_populates_cache_for_serial_run(tmp_path):
    SweepRunner(jobs=2, cache_dir=tmp_path).run_cells(sweep_cells())
    warm = SweepRunner(jobs=1, cache_dir=tmp_path)
    warm.run_cells(sweep_cells())
    assert warm.stats.cache_hits == 4


def test_duplicate_cells_simulate_once():
    runner = SweepRunner(jobs=1, use_cache=False)
    cells = [
        SweepCell(small_spec(), StaticPaging(PAGE_64K)),
        SweepCell(small_spec(), StaticPaging(PAGE_64K)),
    ]
    results = runner.run_cells(cells)
    assert runner.stats.simulated == 1
    assert runner.stats.deduped == 1
    assert results[0] == results[1]


class _NonPicklablePolicy(StaticPaging):
    """A policy carrying an unpicklable attribute (closure)."""

    def __init__(self, page_size):
        super().__init__(page_size)
        self.hook = lambda: None


def test_non_picklable_policy_falls_back_to_serial():
    spec = small_spec()
    runner = SweepRunner(jobs=2, use_cache=False)
    results = runner.run_cells(
        [
            SweepCell(spec, _NonPicklablePolicy(PAGE_64K)),
            SweepCell(spec, StaticPaging(PAGE_64K)),
        ]
    )
    assert runner.stats.simulated == 2
    # Same decisions, so the unpicklable variant matches the plain one.
    assert results[0] == results[1]


# --- fingerprint sensitivity ------------------------------------------


def test_fingerprint_changes_with_every_input():
    spec = small_spec()
    base = cell_fingerprint(SweepCell(spec, StaticPaging(PAGE_64K)))
    variants = [
        SweepCell(small_spec("OTH"), StaticPaging(PAGE_64K)),
        SweepCell(spec, StaticPaging(PAGE_2M)),
        SweepCell(spec, ClapPolicy()),
        SweepCell(spec, ClapPolicy(pmm_threshold=0.30)),
        SweepCell(spec, StaticPaging(PAGE_64K), GPUConfig(num_chiplets=8)),
        SweepCell(spec, StaticPaging(PAGE_64K), seed=8),
        SweepCell(
            spec, StaticPaging(PAGE_64K), timing=TimingParams(issue_cpi=2.0)
        ),
        SweepCell(spec, StaticPaging(PAGE_64K), remote_cache="clap"),
    ]
    keys = [cell_fingerprint(cell) for cell in variants]
    assert base not in keys
    assert len(set(keys)) == len(keys)


def test_fingerprint_stable_and_resolution_equivalent():
    # String and resolved forms describe the same cell.
    by_name = cell_fingerprint(SweepCell("STE", "S-64KB"))
    resolved = cell_fingerprint(
        SweepCell(workload_by_name("STE"), StaticPaging(PAGE_64K))
    )
    assert by_name == resolved
    # Rebuilding the same cell never changes the key (no id()/hash()
    # leakage into the fingerprint).
    again = cell_fingerprint(SweepCell("STE", "S-64KB"))
    assert by_name == again


def test_fingerprint_ignores_tag():
    spec = small_spec()
    a = cell_fingerprint(SweepCell(spec, StaticPaging(PAGE_64K), tag="a"))
    b = cell_fingerprint(SweepCell(spec, StaticPaging(PAGE_64K), tag="b"))
    assert a == b


def test_fingerprint_is_engine_independent(tmp_path):
    """The replay engine never enters the cache key: staged and batched
    results are bit-identical on ``to_dict`` (the cached payload), so a
    result the staged reference computed, cached under the cell's key,
    is what a sweep of that cell reads back, and equals the sweep's own
    (batched) replay."""
    spec = small_spec()
    cell = SweepCell(spec, StaticPaging(PAGE_64K))
    staged = run_workload(spec, StaticPaging(PAGE_64K), engine="staged")
    ResultCache(tmp_path).put(cell_fingerprint(cell), staged)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path)
    (cached,) = runner.run_cells([cell])
    assert runner.stats.cache_hits == 1
    (batched,) = SweepRunner(jobs=1, use_cache=False).run_cells([cell])
    assert cached.to_dict() == batched.to_dict() == staged.to_dict()


# --- cache behaviour ---------------------------------------------------


def test_cache_tolerates_corruption_and_schema_bumps(tmp_path):
    spec = small_spec()
    cell = SweepCell(spec, StaticPaging(PAGE_64K))
    key = cell_fingerprint(cell)
    cache = ResultCache(tmp_path)
    result = SweepRunner(jobs=1, use_cache=False).run_cells([cell])[0]
    cache.put(key, result)
    assert cache.get(key) == result

    # Corrupt entry: treated as a miss, not an error, and quarantined
    # with a warning so the operator learns about it.
    cache.path_for(key).write_text("{ not json")
    with pytest.warns(
        RuntimeWarning, match="quarantined corrupt result-cache entry"
    ):
        assert cache.get(key) is None

    # Wrong schema version: also a miss.
    cache.path_for(key).write_text(
        json.dumps(
            {"schema": CACHE_SCHEMA_VERSION + 1, "result": result.to_dict()}
        )
    )
    assert cache.get(key) is None


def test_cache_clear(tmp_path):
    runner = SweepRunner(jobs=1, cache_dir=tmp_path)
    runner.run_cells(sweep_cells())
    cache = ResultCache(tmp_path)
    assert len(cache) == 4
    assert cache.clear() == 4
    assert len(cache) == 0


def test_cache_respects_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    runner = SweepRunner(jobs=1)
    runner.run_cells([SweepCell(small_spec(), StaticPaging(PAGE_64K))])
    assert len(ResultCache()) == 1
    assert (tmp_path / "envcache").is_dir()


# --- worker-count resolution ------------------------------------------


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(4) == 4
    # A count below 1 is a usage error, not a request for serial mode.
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="--jobs/REPRO_JOBS"):
            resolve_jobs(jobs)
    assert resolve_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    for env in ("nope", "0"):
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(ValueError, match="--jobs/REPRO_JOBS"):
            resolve_jobs()


@pytest.mark.parametrize("env", ["0", "nope"])
def test_default_runner_rejects_a_bad_repro_jobs(monkeypatch, env):
    monkeypatch.setenv("REPRO_JOBS", env)
    set_default_runner(None)
    try:
        with pytest.raises(ValueError, match="--jobs/REPRO_JOBS"):
            default_runner()
    finally:
        set_default_runner(None)


def test_summary_line_reports_accounting(tmp_path):
    runner = SweepRunner(jobs=1, cache_dir=tmp_path)
    runner.run_cells(sweep_cells())
    runner.run_cells(sweep_cells())
    line = runner.summary_line()
    assert "8 cells" in line
    assert "4 simulated" in line
    assert "4 cache hits (50.0%)" in line


# --- cache degradation --------------------------------------------------


def test_unwritable_cache_degrades_instead_of_crashing(tmp_path):
    """A cache rooted under a regular file cannot mkdir: the first put
    warns once, flips to degraded mode, and the sweep still completes."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    runner = SweepRunner(jobs=1, cache_dir=blocker / "cache")
    with pytest.warns(RuntimeWarning, match="caching disabled"):
        results = runner.run_cells(sweep_cells())
    assert all(r is not None for r in results)
    assert runner.stats.simulated == 4
    assert runner.cache.write_disabled

    # Subsequent puts are silent no-ops, not repeated warnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runner.cache.put("ab" * 32, results[0])


def test_degraded_cache_still_serves_reads(tmp_path):
    cell = SweepCell(small_spec(), StaticPaging(PAGE_64K))
    key = cell_fingerprint(cell)
    cache = ResultCache(tmp_path)
    result = SweepRunner(jobs=1, use_cache=False).run_cells([cell])[0]
    cache.put(key, result)
    cache.write_disabled = True
    assert cache.get(key) == result


# --- the corpus API (surrogate training reads) --------------------------


def test_iter_results_walks_store_in_sorted_order(tmp_path):
    cache = ResultCache(tmp_path)
    cells = sweep_cells()
    # Fingerprint before running: stateful policies (CLAP's trackers)
    # hash differently once a simulation has mutated them.
    keys = [cell_fingerprint(cell) for cell in cells]
    results = SweepRunner(jobs=1, cache_dir=tmp_path).run_cells(cells)
    listed = list(cache.iter_results())
    assert [key for key, _ in listed] == sorted(key for key, _ in listed)
    by_key = dict(listed)
    for key, result in zip(keys, results):
        assert by_key[key] == result


def test_iter_results_skips_legacy_and_quarantines_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    cells = sweep_cells()
    keys = [cell_fingerprint(cell) for cell in cells]
    SweepRunner(jobs=1, cache_dir=tmp_path).run_cells(cells)
    # A pre-v4 single-document entry is a silent schema miss ...
    legacy = cache.path_for(keys[0])
    legacy.write_text(json.dumps({"schema": 1, "performance": 1.0}))
    # ... while a torn entry is quarantined (once, with a warning).
    torn = cache.path_for(keys[1])
    torn.write_bytes(torn.read_bytes()[:17])
    with pytest.warns(RuntimeWarning, match="quarantined"):
        survivors = dict(cache.iter_results())
    assert set(survivors) == set(keys[2:])
    assert legacy.exists()  # legacy entries are left alone
    assert not torn.exists()
    assert cache.quarantined == 1


def test_surrogate_summary_line_reports_predictions(tmp_path):
    specs = [small_spec(abbr=f"PR{i}") for i in range(4)]
    cells = [
        SweepCell(spec, StaticPaging(size))
        for spec in specs
        for size in (PAGE_64K, 4 * PAGE_64K, PAGE_2M)
    ]
    from repro.surrogate import SurrogateConfig

    runner = SweepRunner(
        jobs=1,
        cache_dir=tmp_path,
        surrogate=SurrogateConfig(budget=5, min_grid=4, min_seed=1,
                                  rounds=2),
    )
    results = runner.run_cells(cells)
    assert len(results) == len(cells)
    assert runner.stats.cells == len(cells)
    assert runner.stats.cells_predicted == sum(
        getattr(r, "predicted", False) for r in results
    )
    assert runner.stats.cells_predicted > 0
    line = runner.summary_line()
    assert f"{runner.stats.cells_predicted} predicted" in line
    assert "surrogate rounds" in line


@pytest.mark.parametrize("value", ["off", "no", "False", "OFF", " No "])
def test_default_runner_reads_repro_cache_off_spellings(monkeypatch, value):
    """``REPRO_CACHE`` takes the trace store's off spellings, in any case."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setenv("REPRO_CACHE", value)
    set_default_runner(None)
    try:
        assert default_runner().cache is None
    finally:
        set_default_runner(None)
