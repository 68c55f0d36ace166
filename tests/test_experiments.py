"""Shape tests for the experiment modules (quick workload subsets).

These assert the *qualitative* paper results — who wins, which direction
ratios move — on reduced workload sets so the test suite stays fast.
The full-matrix numbers live in the benchmarks and EXPERIMENTS.md.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    fig01_page_size_intro,
    fig02_remote_caching,
    fig06_page_size_sweep,
    fig08_structure_sensitivity,
    fig10_chiplet_locality,
    fig18_main,
    fig19_static_analysis,
    fig20_migration,
    fig21_caching_synergy,
    fig22_eight_chiplets,
    sec26_interleaving,
    table2_workloads,
    table4_selected_sizes,
)
from repro.experiments.common import ExperimentResult, Row, gmean

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Loads ``gmean`` in a fresh interpreter and reports whether NumPy came too.
_GMEAN_PROBE = """
import sys
from repro.experiments.common import gmean
assert gmean([1.25, 2.0, 0.5]) > 0
print("numpy" in sys.modules)
"""


class TestCommon:
    def test_gmean(self):
        assert gmean([1.0, 4.0]) == pytest.approx(2.0)
        speedups = [1.37, 0.82, 2.5, 1.0, 0.125, 3.0e2]
        assert gmean(speedups) == math.exp(
            math.fsum(map(math.log, speedups)) / len(speedups)
        )
        for bad in ([], [1.0, -1.0], [0.0]):
            with pytest.raises(ValueError):
                gmean(bad)

        @settings(max_examples=200, deadline=None)
        @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20))
        def agrees_with_numpy(values):
            g = gmean(values)
            # exp(log(x)) need not round back to x: allow a few ulps.
            assert min(values) * (1 - 1e-14) <= g <= max(values) * (1 + 1e-14)
            ref = float(np.exp(np.mean(np.log(np.asarray(values)))))
            assert g == pytest.approx(ref, rel=1e-12)

        agrees_with_numpy()

        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        proc = subprocess.run(
            [sys.executable, "-c", _GMEAN_PROBE], env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_result_accessors(self):
        result = ExperimentResult(
            "X", "desc",
            rows=[Row("w1", "a", 1.0), Row("w1", "b", 2.0),
                  Row("w2", "a", 3.0)],
        )
        assert result.configs() == ["a", "b"]
        assert result.workloads() == ["w1", "w2"]
        assert result.values("a") == [1.0, 3.0]
        assert result.row("w1", "b").value == 2.0
        with pytest.raises(KeyError):
            result.row("w9", "a")
        assert "w1" in result.format()


class TestFig01:
    def test_shapes(self):
        result = fig01_page_size_intro.run(quick=True)
        # STE: 2MB loses to 64KB and turns remote
        assert result.row("STE", "2MB").value < result.row("STE", "64KB").value
        assert result.row("STE", "2MB").remote_ratio > 0.5
        # GPT3 gains monotonically toward 2MB
        assert (
            result.row("GPT3", "2MB").value
            >= result.row("GPT3", "64KB").value
            >= result.row("GPT3", "4KB").value * 0.99
        )
        # translation latency reductions positive and ordered
        assert (
            result.summary["avg_translation_reduction_2MB"]
            > result.summary["avg_translation_reduction_64KB"]
            > 0
        )


class TestFig02:
    def test_caching_helps_but_page_size_helps_more(self):
        result = fig02_remote_caching.run(quick=True)
        s = result.summary
        assert s["gmean_2MB+NUBA"] > 1.0
        assert s["gmean_2MB+SAC"] >= 1.0
        assert s["gmean_64KB_No_RC"] > s["gmean_2MB+NUBA"]
        assert s["gmean_64KB_No_RC"] > s["gmean_2MB+SAC"]


class TestSec26:
    def test_numa_layout_costs_little_and_enables_much(self):
        result = sec26_interleaving.run(quick=True)
        s = result.summary
        assert abs(s["gmean_numa_no_opt_vs_naive"] - 1.0) < 0.08
        assert s["gmean_numa_ft_vs_naive"] > 1.15


class TestFig06:
    def test_ste_peaks_at_intermediate_size(self):
        result = fig06_page_size_sweep.run(workloads=["STE"])
        peak = fig06_page_size_sweep.best_size(result, "STE")
        assert peak in (128 * 1024, 256 * 1024)
        assert result.row("STE", "2MB").value < 1.0
        assert result.row("STE", "2MB").remote_ratio > 0.5

    def test_blk_improves_monotonically_beyond_64kb(self):
        result = fig06_page_size_sweep.run(workloads=["BLK"])
        labels = ["64KB", "128KB", "256KB", "512KB", "1MB", "2MB"]
        values = [result.row("BLK", label).value for label in labels]
        assert values[-1] > values[0]
        assert all(r.remote_ratio < 0.05
                   for r in result.rows if r.workload == "BLK")


class TestFig08:
    def test_3dc_structures_track_each_other(self):
        result = fig08_structure_sensitivity.run(quick=True)
        for label in ("64KB", "2MB"):
            a = result.row("3DC.vol_in", label).value
            b = result.row("3DC.vol_out", label).value
            assert abs(a - b) < 0.15

    def test_bfs_structures_diverge(self):
        result = fig08_structure_sensitivity.run()
        edges = result.row("BFS.edges", "2MB").value
        frontier = result.row("BFS.frontier", "2MB").value
        assert frontier > edges + 0.3


class TestFig10:
    def test_high_average_locality(self):
        result = fig10_chiplet_locality.run()
        assert result.summary["average"] > 0.9
        # irregular workloads fall below the regular ones
        sssp = result.row("SSSP", "locality").value
        assert sssp < 1.0


class TestTable2:
    def test_tlb_mpki_monotone_in_page_size(self):
        result = table2_workloads.run(quick=True)
        for workload in result.workloads():
            small = result.row(workload, "4KB").value
            mid = result.row(workload, "64KB").value
            large = result.row(workload, "2MB").value
            assert small >= mid >= large

    def test_misplacement_inflates_l2_mpki(self):
        result = table2_workloads.run(quick=True)
        ste_small = result.row("STE", "64KB").extra["l2_mpki"]
        ste_large = result.row("STE", "2MB").extra["l2_mpki"]
        assert ste_large > ste_small * 1.3


class TestTable4:
    def test_every_paper_entry_matches(self):
        result = table4_selected_sizes.run()
        assert result.summary["matching_entries"] == (
            result.summary["paper_entries"]
        )
        assert result.summary["paper_entries"] == 38.0


class TestFig18Quick:
    def test_clap_wins_on_quick_set(self):
        result = fig18_main.run(quick=True)
        s = result.summary
        assert s["clap_over_S-64KB"] > 1.05
        assert s["clap_over_GRIT"] > 1.05
        assert s["gmean_Ideal"] >= s["gmean_CLAP"]


class TestFig19Quick:
    def test_clap_sa_progression(self):
        result = fig19_static_analysis.run(quick=True)
        s = result.summary
        assert s["gmean_CLAP-SA"] > s["gmean_SA-64KB"]
        assert s["gmean_CLAP-SA++"] >= s["gmean_CLAP-SA"] * 0.99


class TestFig20:
    def test_migration_extension_wins(self):
        result = fig20_migration.run()
        s = result.summary
        assert s["perf_CLAP+migration"] > s["perf_CLAP"]
        assert s["perf_CLAP"] > s["perf_S-64KB"]
        mig = result.row("GEMM-RU", "CLAP+migration")
        assert mig.extra["migrations"] > 0
        assert mig.extra["cstar_remote"] < (
            result.row("GEMM-RU", "CLAP").extra["cstar_remote"]
        )


class TestFig21Quick:
    def test_clap_plus_cache_beats_everything(self):
        result = fig21_caching_synergy.run(quick=True)
        s = result.summary
        assert s["gmean_CLAP+NUBA"] >= s["gmean_CLAP"]
        assert s["gmean_CLAP+NUBA"] > s["gmean_S-2MB+NUBA"]


class TestFig22Quick:
    def test_clap_scales_to_eight_chiplets(self):
        result = fig22_eight_chiplets.run(quick=True)
        s = result.summary
        assert s["gmean_CLAP_over_S-64KB"] > 1.0
        assert s["gmean_CLAP_over_S-2MB"] > 1.0
