"""CLAP: Chiplet-Locality Aware Page Placement (the paper's contribution).

* :mod:`repro.core.mma` — the tree-based chiplet-locality analysis
  (Section 4.4, Equations 1-4);
* :mod:`repro.core.clap` — the full policy: partial memory mapping with
  opportunistic large paging, Remote-Tracker-refined page-size selection,
  and reservation-based application of the selected size;
* :mod:`repro.core.clap_sa` — CLAP-SA / CLAP-SA++ (static-analysis
  profiling, Section 5.2);
* :mod:`repro.core.migration` — the CLAP+migration extension (Figure 20).

The package re-exports nothing; import the submodules.
"""
