"""Synthetic workload traces with explicit chiplet-locality structure.

The package re-exports nothing; import the submodules
(``repro.trace.workload``, ``repro.trace.suite``, ...).
"""
