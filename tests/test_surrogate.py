"""The surrogate subsystem's contracts.

Three families of invariants:

* **Feature extraction** is deterministic across processes — a model
  fitted in one process must score cells fanned out from another, so
  vectors are pinned with a subprocess round trip and a fuzz case.
* **Corpus plumbing** — ``ResultCache.iter_results`` round-trips the
  schema-v4 payload and skips quarantined/corrupt entries without
  raising; ``ResultCache.put`` refuses anything that is not an exact
  ``SimResult``, and ``PredictedResult`` is no ``SimResult`` subclass
  and has no cache codec, so a prediction can never be cached.
* **The active-sampling loop** — tiny grids run exactly, budgets hold,
  exactly simulated cells are bit-identical to a plain sweep, corpus
  hits are free training data, and predictions never enter the cache.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.clap import ClapPolicy
from repro.policies import StaticPaging
from repro.sim.parallel import ResultCache, SweepCell, SweepRunner, cell_fingerprint
from repro.sim.results import SimResult
from repro.surrogate import (
    FEATURE_NAMES,
    PredictedResult,
    SurrogateConfig,
    SurrogateModel,
    explore,
    feature_dict,
    feature_vector,
    resolve_surrogate,
)
from repro.units import MB, PAGE_64K, SWEEP_PAGE_SIZES

from .conftest import make_spec, partitioned, shared

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_spec(abbr="SUR", size=6 * MB, group=4, tb_count=64):
    return make_spec(
        partitioned(size=size, group=group, waves=2, lines_per_touch=4),
        shared(size=2 * MB, waves=2, lines_per_touch=4),
        abbr=abbr,
        tb_count=tb_count,
    )


def grid_cells(n_workloads=5, policies=None):
    if policies is None:
        policies = [StaticPaging(size) for size in SWEEP_PAGE_SIZES]
        policies.append(ClapPolicy())
    return [
        SweepCell(
            small_spec(abbr=f"SU{i:02d}", size=(3 + i % 3) * MB,
                       group=2 << (i % 2), tb_count=64 + 16 * (i % 3)),
            policy,
        )
        for i in range(n_workloads)
        for policy in policies
    ]


# --- feature extraction ----------------------------------------------


def test_feature_dict_covers_exactly_feature_names():
    cell = SweepCell(small_spec(), StaticPaging(PAGE_64K))
    values = feature_dict(cell)
    assert set(values) == set(FEATURE_NAMES)
    vector = feature_vector(cell)
    assert vector.shape == (len(FEATURE_NAMES),)
    assert np.isfinite(vector).all()


def test_features_distinguish_policy_and_page_size():
    spec = small_spec()
    a = feature_vector(SweepCell(spec, StaticPaging(PAGE_64K)))
    b = feature_vector(SweepCell(spec, StaticPaging(2 * MB)))
    c = feature_vector(SweepCell(spec, ClapPolicy()))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_feature_extraction_deterministic_across_processes():
    """A vector extracted in a child process is bit-identical to ours —
    no hash(), id() or unordered iteration sneaks into extraction."""
    cell = SweepCell(small_spec(), ClapPolicy(), seed=11)
    ours = feature_vector(cell).tolist()
    script = (
        "import sys, json\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        f"sys.path.insert(0, {str(REPO_ROOT)!r})\n"
        "from repro.sim.parallel import SweepCell\n"
        "from repro.core.clap import ClapPolicy\n"
        "from repro.surrogate import feature_vector\n"
        "from tests.test_surrogate import small_spec\n"
        "cell = SweepCell(small_spec(), ClapPolicy(), seed=11)\n"
        "print(json.dumps(feature_vector(cell).tolist()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    )
    theirs = json.loads(proc.stdout)
    assert theirs == ours


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_feature_extraction_fuzz_repeatable(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 8)) * MB
    group = int(2 ** rng.integers(0, 4))
    cell = SweepCell(
        small_spec(size=size, group=group),
        StaticPaging(int(rng.choice(SWEEP_PAGE_SIZES))),
        seed=int(rng.integers(0, 100)),
    )
    assert np.array_equal(feature_vector(cell), feature_vector(cell))


# --- the model --------------------------------------------------------


def test_model_interpolates_training_points():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 6))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0, 1.5]) + 4.0
    model = SurrogateModel()
    model.fit(x, y)
    mean, _ = model.predict(x)
    # Training cells are their own nearest neighbour, so the k-NN side
    # of the blend reproduces the training target almost exactly.
    assert np.allclose(mean, y, atol=1e-4)
    assert model.n_trained == 40


def test_model_uncertainty_grows_with_distance():
    # A constant target isolates the distance term: both estimators
    # agree, neighbours have zero spread, so uncertainty at a training
    # point is ~0 and a far query's is strictly positive.
    x = np.stack([np.linspace(0.0, 1.0, 20),
                  np.linspace(1.0, 0.0, 20)], axis=1)
    y = np.full(20, 2.0)
    model = SurrogateModel()
    model.fit(x, y)
    _, train_unc = model.predict(x)
    assert float(np.max(train_unc)) < 1e-6
    far_mean, far_unc = model.predict(np.array([[30.0, -30.0]]))
    assert float(far_unc[0]) > 0.1
    assert far_mean[0] == pytest.approx(2.0, abs=1e-6)


# --- corpus plumbing --------------------------------------------------


def test_iter_results_round_trips_schema(tmp_path):
    cache = ResultCache(root=tmp_path)
    cells = grid_cells(2, policies=[StaticPaging(PAGE_64K)])
    results = SweepRunner(jobs=1, use_cache=True, cache_dir=tmp_path).run_cells(
        cells
    )
    stored = dict(cache.iter_results())
    assert set(stored) == {cell_fingerprint(cell) for cell in cells}
    for cell, result in zip(cells, results):
        assert stored[cell_fingerprint(cell)] == result
        assert stored[cell_fingerprint(cell)].to_dict() == result.to_dict()


def test_iter_results_skips_corrupt_entries_without_raising(tmp_path):
    cache = ResultCache(root=tmp_path)
    cells = grid_cells(2, policies=[StaticPaging(PAGE_64K)])
    SweepRunner(jobs=1, use_cache=True, cache_dir=tmp_path).run_cells(cells)
    victim = cache.path_for(cell_fingerprint(cells[0]))
    victim.write_bytes(b"\x00garbage payload")
    (tmp_path / "aa").mkdir(exist_ok=True)
    (tmp_path / "aa" / "not-an-entry.json").write_text("{}")
    with pytest.warns(
        RuntimeWarning, match="quarantined corrupt result-cache entry"
    ):
        survivors = dict(cache.iter_results())
    assert cell_fingerprint(cells[0]) not in survivors
    assert cell_fingerprint(cells[1]) in survivors
    # The corrupt entry was quarantined, not left to fail every scan.
    assert not victim.exists()
    assert list((tmp_path / "corrupt").iterdir())


def test_cache_put_refuses_predicted_results(tmp_path):
    cache = ResultCache(root=tmp_path)
    predicted = PredictedResult(
        workload="SUR", policy="S-64KB", performance=1.0, remote_ratio=0.0,
        uncertainty=0.1, fingerprint="0" * 64, n_trained=3,
    )
    with pytest.raises(TypeError, match="exact simulation results only"):
        cache.put("0" * 64, predicted)
    with pytest.raises(TypeError):
        cache.put("0" * 64, {"performance": 1.0})
    assert not cache.path_for("0" * 64).exists()
    assert cache.get("0" * 64) is None


def test_prediction_type_cannot_pass_as_a_simulation():
    """``isinstance`` always tells a prediction from an exact result,
    and the prediction type has no cache codec to be stored with."""
    assert not issubclass(PredictedResult, SimResult)
    assert not hasattr(PredictedResult, "to_dict")
    assert not hasattr(PredictedResult, "from_dict")


# --- resolve_surrogate spellings -------------------------------------


def test_resolve_surrogate_spellings():
    assert resolve_surrogate(None) is None
    assert resolve_surrogate(False) is None
    assert resolve_surrogate("off") is None
    assert isinstance(resolve_surrogate(True), SurrogateConfig)
    assert isinstance(resolve_surrogate("on"), SurrogateConfig)
    assert resolve_surrogate(37).budget == 37
    assert resolve_surrogate("37").budget == 37
    config = SurrogateConfig(budget=5)
    assert resolve_surrogate(config) is config
    with pytest.raises(ValueError):
        resolve_surrogate("sideways")


# --- the active-sampling loop ----------------------------------------


def test_tiny_grid_runs_everything_exactly():
    cells = grid_cells(1)
    runner = SweepRunner(
        jobs=1, use_cache=False, surrogate=SurrogateConfig(budget=2)
    )
    results = runner.run_cells(cells)
    assert all(isinstance(r, SimResult) for r in results)
    assert runner.stats.cells_predicted == 0


def test_exact_cells_bit_identical_and_predictions_never_cached(tmp_path):
    cells = grid_cells(6)
    truth = SweepRunner(jobs=2, use_cache=False).run_cells(cells)
    cache_dir = tmp_path / "cache"
    runner = SweepRunner(
        jobs=2,
        use_cache=True,
        cache_dir=cache_dir,
        surrogate=SurrogateConfig(budget_fraction=0.4, min_grid=4,
                                  min_seed=1, rounds=4),
    )
    swept = runner.run_cells(cells)
    exact = [
        (ours, theirs)
        for ours, theirs in zip(swept, truth)
        if isinstance(ours, SimResult)
    ]
    predicted = [r for r in swept if isinstance(r, PredictedResult)]
    assert exact and predicted  # the budget actually split the grid
    for ours, theirs in exact:
        assert ours.to_dict() == theirs.to_dict()
    # Budget held: exact simulations <= ceil(fraction * unique cells).
    assert runner.stats.cells - runner.stats.cells_predicted <= int(
        0.4 * len(cells)
    ) + len(cells) % 2
    # The cache holds exactly the exact cells — no prediction leaked.
    stored = dict(ResultCache(root=cache_dir).iter_results())
    assert len(stored) == len(exact)
    assert all(isinstance(r, SimResult) for r in stored.values())
    fingerprints = {
        cell_fingerprint(cell)
        for cell, ours in zip(cells, swept)
        if isinstance(ours, SimResult)
    }
    assert set(stored) == fingerprints
    # Predictions carry their would-be fingerprint and an error bar.
    for result in predicted:
        assert result.predicted and result.uncertainty >= 0.0
        assert result.n_trained > 0


def test_corpus_hits_count_as_free_training(tmp_path):
    cells = grid_cells(4)
    cache_dir = tmp_path / "cache"
    SweepRunner(jobs=2, use_cache=True, cache_dir=cache_dir).run_cells(cells)
    runner = SweepRunner(
        jobs=2,
        use_cache=True,
        cache_dir=cache_dir,
        surrogate=SurrogateConfig(budget_fraction=0.3, min_grid=4,
                                  min_seed=1, rounds=2),
    )
    swept = runner.run_cells(cells)
    # Everything was already cached: zero new simulations, all exact.
    assert runner.stats.simulated == 0
    assert runner.stats.cache_hits == len(cells)
    assert all(isinstance(r, SimResult) for r in swept)


def test_explore_returns_input_order_and_stats():
    cells = grid_cells(3, policies=[StaticPaging(PAGE_64K),
                                    StaticPaging(2 * MB)])
    by_index = {}

    def exact_fn(indices):
        from repro.sim.parallel import _run_cell

        for i in indices:
            by_index[i] = _run_cell(cells[i])
        return {i: by_index[i] for i in indices}

    outcome = explore(
        cells, exact_fn, config=SurrogateConfig(budget=3, min_grid=2,
                                                min_seed=1, rounds=2),
    )
    assert len(outcome.results) == len(cells)
    stats = outcome.stats
    assert stats.grid_cells == len(cells)
    assert stats.exact_simulated <= 3
    assert stats.predicted == sum(
        isinstance(r, PredictedResult) for r in outcome.results
    )
    assert stats.reduction >= len(cells) / 3
    for i, result in enumerate(outcome.results):
        if isinstance(result, SimResult):
            assert result == by_index[i]


def test_surrogate_rejects_telemetry():
    with pytest.raises(ValueError, match="telemetry"):
        SweepRunner(surrogate=True, telemetry=True)


def test_predicted_result_speedup_requires_same_workload():
    a = PredictedResult(
        workload="A", policy="S-64KB", performance=2.0, remote_ratio=0.0,
        uncertainty=0.1, fingerprint="0" * 64, n_trained=1,
    )
    b = PredictedResult(
        workload="B", policy="S-64KB", performance=1.0, remote_ratio=0.0,
        uncertainty=0.1, fingerprint="1" * 64, n_trained=1,
    )
    assert a.speedup_over(a) == 1.0
    with pytest.raises(ValueError, match="same workload"):
        a.speedup_over(b)
