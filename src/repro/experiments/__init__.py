"""Experiment modules: one per reproduced paper table / figure.

Every module exposes ``run(quick=False, runner=None) ->
ExperimentResult``; ``quick`` restricts the workload set so unit tests
finish fast, while the benchmarks run the full matrix.  Cells run
through ``runner`` (``None`` means the serial, cache-free default
runner).  ``ExperimentResult.format()`` prints the same rows/series the
paper's figure or table reports.
"""

from .common import ExperimentResult, Row

__all__ = ["ExperimentResult", "Row"]
