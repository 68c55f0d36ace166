"""Table 4: the page sizes CLAP selects per data structure.

Runs CLAP on every workload and reports the selected size for each data
structure (up to the three largest, as in the paper's table).  Entries
decided through OLP — because MMA lacked a fully mapped block (small
allocations, tiled scans) — are flagged, mirroring the paper's
italic/bold marking.  The test suite asserts these match Table 4's
entries structure by structure.
"""

from __future__ import annotations

from typing import Optional

from ..core.clap import ClapPolicy
from ..sim.parallel import SweepRunner
from ..units import size_label
from .common import ExperimentResult, Row, pick_workloads, run_cells

#: The paper's Table 4, as (workload -> {structure: (size_label, via_olp)}).
PAPER_TABLE4 = {
    "STE": {"grid_in": ("256KB", False), "grid_out": ("256KB", False)},
    "3DC": {"vol_in": ("64KB", False), "vol_out": ("64KB", False)},
    "LPS": {"phi_in": ("256KB", False), "phi_out": ("256KB", False)},
    "PAF": {
        "wall": ("128KB", False),
        "src": ("64KB", True),
        "res": ("64KB", True),
    },
    "SC": {
        "points": ("128KB", False),
        "centers": ("64KB", True),
        "assign": ("64KB", True),
    },
    "BFS": {
        "edges": ("2MB", False),
        "nodes": ("2MB", False),
        "frontier": ("64KB", True),
    },
    "2DC": {"img_in": ("2MB", False), "img_out": ("2MB", False)},
    "FDT": {
        "ex": ("2MB", False),
        "ey": ("2MB", False),
        "hz": ("2MB", False),
    },
    "BLK": {
        "price": ("2MB", False),
        "strike": ("2MB", False),
        "opttime": ("2MB", False),
    },
    "SSSP": {
        "edges": ("2MB", False),
        "nodes": ("2MB", False),
        "dist": ("2MB", False),
    },
    "DWT": {"img": ("2MB", False), "coeff": ("2MB", False)},
    "LUD": {"matrix": ("2MB", True)},
    "ViT": {
        "matrix_A": ("64KB", True),
        "matrix_B": ("2MB", False),
        "matrix_C": ("2MB", True),
    },
    "RES50": {
        "matrix_A": ("2MB", True),
        "matrix_B": ("2MB", False),
        "matrix_C": ("2MB", True),
    },
    "GPT3": {
        "matrix_A": ("2MB", True),
        "matrix_B": ("2MB", False),
        "matrix_C": ("2MB", True),
    },
}


def run(
    quick: bool = False, runner: Optional[SweepRunner] = None
) -> ExperimentResult:
    rows = []
    matches = 0
    total = 0
    specs = pick_workloads(quick)
    flat = iter(run_cells([(spec, ClapPolicy()) for spec in specs], runner))
    for spec in specs:
        result = next(flat)
        expected = PAPER_TABLE4.get(spec.abbr, {})
        for name, selection in result.selections.items():
            label = size_label(selection.page_size)
            row = Row(
                workload=spec.abbr,
                config=name,
                value=float(selection.page_size),
                extra={
                    "label": label,
                    "via_olp": selection.via_olp,
                    "expected": expected.get(name),
                },
            )
            rows.append(row)
            if name in expected:
                total += 1
                if expected[name] == (label, selection.via_olp):
                    matches += 1
    return ExperimentResult(
        experiment="Table 4",
        description="CLAP-selected page sizes per structure (* = via OLP)",
        rows=rows,
        summary={
            "matching_entries": float(matches),
            "paper_entries": float(total),
        },
    )
