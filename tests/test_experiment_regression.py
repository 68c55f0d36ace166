"""Golden-value regression pins for the headline experiments.

The shape tests in ``test_experiments.py`` assert qualitative paper
results; these pin the *numbers* the quick runs produce today, so that
performance refactors (parallel runners, caching, engine rewrites)
cannot silently change science outputs.  Tolerances are tight — every
simulation is deterministic end to end — but relative, to absorb
platform-level floating-point wiggle.

If a change is *supposed* to move these numbers (a model fix, a
calibration change), regenerate the constants and say so in the commit.

Every experiment module runs its quick matrix once, on an explicit
serial, cache-free :class:`SweepRunner`, and every pin below reads that
one run: the same run also proves the module's cells reach the runner.
"""

import functools
import importlib
import pkgutil

import pytest

import repro.experiments
from repro.experiments import fig18_main
from repro.sim import parallel
from repro.sim.parallel import SweepRunner

REL = 1e-6

#: Every module under ``repro.experiments`` that exposes ``run``.
EXPERIMENT_MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.experiments.__path__)
    if hasattr(importlib.import_module(f"repro.experiments.{info.name}"), "run")
)

#: (workload, size) -> (performance normalised to 64KB, remote ratio)
FIG06_GOLDEN = {
    ("STE", "4KB"): (0.662990561351217, 0.0),
    ("STE", "256KB"): (1.0925612618021068, 0.0),
    ("STE", "2MB"): (0.6308512287484669, 0.75),
    ("BLK", "4KB"): (0.9965203719708853, 0.0),
    ("BLK", "256KB"): (1.2156075163489735, 0.0),
    ("BLK", "2MB"): (1.2971814538769089, 0.0),
    ("GPT3", "4KB"): (0.869262490807224, 0.45),
    ("GPT3", "256KB"): (1.1228787338287192, 0.45),
    ("GPT3", "2MB"): (1.1639763417377755, 0.45),
}

FIG18_GOLDEN_SUMMARY = {
    "gmean_S-2MB": 0.9839143148420216,
    "gmean_Ideal_C-NUMA": 1.0841039683814069,
    "gmean_Ideal_C-NUMA+inter": 1.0655375158398928,
    "gmean_GRIT": 0.9999802158460732,
    "gmean_MGvm": 1.061319507887009,
    "gmean_F-Barre": 0.8243043718296006,
    "gmean_CLAP": 1.164344094672418,
    "gmean_Ideal": 1.331111994988773,
    "clap_over_S-64KB": 1.164344094672418,
    "clap_over_S-2MB": 1.1833795657901027,
    "clap_over_Ideal_C-NUMA": 1.0740151577996817,
    "clap_over_Ideal_C-NUMA+inter": 1.092729328966557,
    "clap_over_GRIT": 1.1643671306909589,
    "clap_over_MGvm": 1.0970721691439758,
    "clap_over_F-Barre": 1.4125171896008215,
    "ideal_over_clap": 1.1432290515144274,
}

#: Quick-mode ``summary`` of every experiment module.  fig06, fig08 and
#: table2 report rows only; their rows are pinned separately.
QUICK_GOLDEN_SUMMARY = {
    "energy": {
        "gmean_energy_S-64KB": 1.0,
        "gmean_energy_S-2MB": 1.5675732030472924,
        "gmean_energy_CLAP": 1.0311745349300836,
    },
    "fig01_page_size_intro": {
        "avg_translation_reduction_64KB": 0.56362391741495,
        "avg_translation_reduction_2MB": 0.8210053252259415,
    },
    "fig02_remote_caching": {
        "gmean_2MB_No_RC": 1.0,
        "gmean_2MB+NUBA": 1.1725466869639543,
        "gmean_2MB+SAC": 1.0,
        "gmean_64KB_No_RC": 1.5851597879643984,
    },
    "fig06_page_size_sweep": {},
    "fig08_structure_sensitivity": {},
    "fig10_chiplet_locality": {"average": 1.0},
    "fig18_main": {"gmean_S-64KB": 1.0, **FIG18_GOLDEN_SUMMARY},
    "fig19_static_analysis": {
        "gmean_SA-64KB": 1.0,
        "gmean_SA-2MB": 0.984474682499898,
        "gmean_CLAP-SA": 1.1822541128618127,
        "gmean_CLAP-SA++": 1.1822541128618127,
        "clap_sa_over_sa2mb": 1.2008984424664828,
        "clap_sa_pp_over_sa2mb": 1.2008984424664828,
        "avg_remote_clap_sa_pp": 0.15,
    },
    "fig20_migration": {
        "perf_S-64KB": 1.0,
        "perf_S-2MB": 1.2529764901510545,
        "perf_CLAP": 1.2199908535276582,
        "perf_Ideal_C-NUMA": 1.1362526743761021,
        "perf_GRIT": 1.0718802698795555,
        "perf_CLAP+migration": 1.310102822471046,
    },
    "fig21_caching_synergy": {
        "gmean_S-2MB": 1.0,
        "gmean_S-2MB+NUBA": 1.1243511420084458,
        "gmean_S-2MB+SAC": 1.0198141819841784,
        "gmean_CLAP": 1.1833795657901025,
        "gmean_CLAP+NUBA": 1.2559576035497675,
        "gmean_CLAP+SAC": 1.2117511179894882,
    },
    "fig22_eight_chiplets": {
        "gmean_CLAP_over_S-64KB": 1.189077749881801,
        "gmean_CLAP_over_S-2MB": 1.3123231589375293,
    },
    "sec26_interleaving": {
        "gmean_numa_no_opt_vs_naive": 1.0269225536234896,
        "gmean_numa_ft_vs_naive": 1.4017196955979223,
    },
    "table2_workloads": {},
    "table4_selected_sizes": {
        "matching_entries": 8.0,
        "paper_entries": 8.0,
    },
}

#: (workload.structure, size) -> remote ratio
FIG08_GOLDEN = {
    ("3DC.vol_in", "4KB"): 0.0,
    ("3DC.vol_out", "4KB"): 0.0,
    ("3DC.vol_in", "64KB"): 0.0,
    ("3DC.vol_out", "64KB"): 0.0,
    ("3DC.vol_in", "128KB"): 0.5,
    ("3DC.vol_out", "128KB"): 0.5,
    ("3DC.vol_in", "256KB"): 0.75,
    ("3DC.vol_out", "256KB"): 0.75,
    ("3DC.vol_in", "512KB"): 0.75,
    ("3DC.vol_out", "512KB"): 0.75,
    ("3DC.vol_in", "1MB"): 0.75,
    ("3DC.vol_out", "1MB"): 0.75,
    ("3DC.vol_in", "2MB"): 0.75,
    ("3DC.vol_out", "2MB"): 0.75,
}

#: table4's summary only counts matches, so its rows are pinned too:
#: (workload, structure) -> (selected size, decided via OLP)
TABLE4_GOLDEN = {
    ("STE", "grid_in"): ("256KB", False),
    ("STE", "grid_out"): ("256KB", False),
    ("BLK", "price"): ("2MB", False),
    ("BLK", "strike"): ("2MB", False),
    ("BLK", "opttime"): ("2MB", False),
    ("GPT3", "matrix_A"): ("2MB", True),
    ("GPT3", "matrix_B"): ("2MB", False),
    ("GPT3", "matrix_C"): ("2MB", True),
}

#: (workload, size) -> (L2 TLB MPKI, L2$ MPKI)
TABLE2_GOLDEN = {
    ("STE", "4KB"): (100.0, 100.0),
    ("STE", "64KB"): (25.0, 100.0),
    ("STE", "2MB"): (9.114583333333334, 300.0),
    ("BLK", "4KB"): (62.5, 224.0849247685185),
    ("BLK", "64KB"): (62.5, 199.16449652777777),
    ("BLK", "2MB"): (22.135416666666668, 199.16449652777777),
    ("GPT3", "4KB"): (90.0, 68.33333333333333),
    ("GPT3", "64KB"): (55.0, 71.31510416666667),
    ("GPT3", "2MB"): (21.666666666666668, 75.79427083333333),
}


@functools.lru_cache(maxsize=None)
def quick_run(name):
    """``(result, stats)`` of module ``name``'s quick run on its own
    serial, cache-free runner (once per test session)."""
    module = importlib.import_module(f"repro.experiments.{name}")
    runner = SweepRunner(jobs=1, use_cache=False)
    return module.run(quick=True, runner=runner), runner.stats


@pytest.fixture(scope="module")
def fig06_result():
    return quick_run("fig06_page_size_sweep")[0]


@pytest.fixture(scope="module")
def fig18_result():
    return quick_run("fig18_main")[0]


@pytest.fixture(scope="module")
def table2_result():
    return quick_run("table2_workloads")[0]


@pytest.mark.parametrize("name", EXPERIMENT_MODULES)
def test_quick_run_goes_through_the_runner(name):
    """Every experiment takes ``runner`` and simulates through it; only
    fig10, a trace analysis, has no cells."""
    result, stats = quick_run(name)
    assert result.summary == pytest.approx(
        QUICK_GOLDEN_SUMMARY[name], rel=REL
    )
    if name == "fig10_chiplet_locality":
        assert stats.cells == 0
    else:
        assert stats.cells > 0


def test_fig08_quick_golden():
    result, _ = quick_run("fig08_structure_sensitivity")
    rows = {(r.workload, r.config): r.value for r in result.rows}
    assert rows == pytest.approx(FIG08_GOLDEN, abs=1e-9)


def test_table4_quick_golden():
    result, _ = quick_run("table4_selected_sizes")
    rows = {
        (r.workload, r.config): (r.extra["label"], r.extra["via_olp"])
        for r in result.rows
    }
    assert rows == TABLE4_GOLDEN


def test_ambient_surrogate_variable_changes_nothing(monkeypatch):
    """``REPRO_SURROGATE`` is not read: a library call made under it
    (default runner, built fresh here) still simulates every cell."""
    monkeypatch.setenv("REPRO_SURROGATE", "1")
    monkeypatch.setattr(parallel, "_default_runner", None)
    summary = fig18_main.run(quick=True).summary
    assert summary == pytest.approx(
        QUICK_GOLDEN_SUMMARY["fig18_main"], rel=REL
    )


def test_fig06_quick_golden(fig06_result):
    for (workload, size), (value, remote) in FIG06_GOLDEN.items():
        row = fig06_result.row(workload, size)
        assert row.value == pytest.approx(value, rel=REL), (workload, size)
        assert row.remote_ratio == pytest.approx(remote, abs=1e-9), (
            workload,
            size,
        )


def test_fig18_quick_golden_summary(fig18_result):
    assert fig18_result.summary["gmean_S-64KB"] == pytest.approx(1.0)
    for key, value in FIG18_GOLDEN_SUMMARY.items():
        assert fig18_result.summary[key] == pytest.approx(
            value, rel=REL
        ), key


def test_fig18_quick_headline_ordering(fig18_result):
    """The orderings the paper's story depends on, from the same run."""
    summary = fig18_result.summary
    assert summary["gmean_Ideal"] > summary["gmean_CLAP"]
    assert summary["gmean_CLAP"] > summary["gmean_Ideal_C-NUMA"]
    assert summary["gmean_CLAP"] > summary["gmean_S-2MB"]


def test_table2_quick_golden(table2_result):
    for (workload, size), (tlb_mpki, l2_mpki) in TABLE2_GOLDEN.items():
        row = table2_result.row(workload, size)
        assert row.value == pytest.approx(tlb_mpki, rel=REL), (
            workload,
            size,
        )
        assert row.extra["l2_mpki"] == pytest.approx(l2_mpki, rel=REL), (
            workload,
            size,
        )
