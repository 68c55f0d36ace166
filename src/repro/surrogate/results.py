"""The surrogate's output type — deliberately not a ``SimResult``.

A predicted number standing in for a simulation is useful exactly as
long as nobody mistakes it for one.  :class:`PredictedResult` therefore
shares the two fields the reporting layer keys on (``workload``,
``policy``) and a ``performance`` value, but:

* it does **not** subclass :class:`~repro.sim.results.SimResult` — an
  ``isinstance`` check always tells them apart, and
  ``ResultCache.put`` uses one to refuse predicted results at runtime;
* it has **no** ``to_dict``/``from_dict`` — the result-cache storage
  format simply cannot express it;
* every quantity it carries is explicitly a model output
  (``performance`` is a prediction, ``uncertainty`` its error bar),
  not a counter an engine produced.

``tests/test_surrogate.py`` asserts the first two, and that
``ResultCache.put`` refuses a prediction.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PredictedResult:
    """One sweep cell's surrogate prediction (never cached).

    ``fingerprint`` is the cell's :func:`~repro.sim.parallel.
    cell_fingerprint` — the key an *exact* result for this cell would
    be cached under, kept so a later run can upgrade the prediction to
    a simulation without re-deriving anything.
    """

    workload: str
    policy: str
    #: predicted warp instructions per cycle (the ``SimResult.
    #: performance`` proxy the figures rank by)
    performance: float
    #: predicted remote-access fraction of memory instructions
    remote_ratio: float
    #: model error bar on ``performance``, in the same units
    uncertainty: float
    #: the cell's result-cache fingerprint (see class docstring)
    fingerprint: str
    #: exact training rows the model had seen when it produced this
    n_trained: int

    #: discriminator for reporting code that handles mixed result
    #: lists; ``SimResult`` has no such attribute, so
    #: ``getattr(r, "predicted", False)`` works on both types
    predicted: bool = True

    def speedup_over(self, baseline) -> float:
        """Predicted performance relative to ``baseline``.

        Mirrors :meth:`SimResult.speedup_over` so mixed exact/predicted
        tables can rank cells uniformly; the baseline may be either
        type.
        """
        if self.workload != baseline.workload:
            raise ValueError(
                "speedup comparisons require the same workload "
                f"({self.workload} vs {baseline.workload})"
            )
        return self.performance / baseline.performance
