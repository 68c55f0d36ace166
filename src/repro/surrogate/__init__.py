"""Surrogate-guided sweep pruning.

A sweep grid is mostly predictable: cells that differ only slightly in
page size, policy, or workload shape land on smooth, correlated regions
of the performance surface, and the content-addressed result cache the
sweep machinery has been filling since PR 1 is exactly a training
corpus for a cheap cost model over that surface.  This package turns
O(grid) sweeps into O(interesting-cells):

* :mod:`repro.surrogate.features` — a deterministic numeric feature
  vector per :class:`~repro.sim.parallel.SweepCell` (workload structure
  sizes and sharing pattern, page size, chiplet count, policy
  capability flags);
* :mod:`repro.surrogate.model` — a ridge + k-NN regression over NumPy
  (no new dependencies) with a distance/disagreement uncertainty
  estimate;
* :mod:`repro.surrogate.active` — the active-sampling loop: seed from
  the cached-result corpus, run the exact engines only on cells the
  surrogate is uncertain about or that sit near a policy/page-size
  crossover, refit as exact results land;
* :mod:`repro.surrogate.results` — :class:`PredictedResult`, the
  surrogate's output type.  It is deliberately **not** a
  :class:`~repro.sim.results.SimResult`: predicted numbers must never
  enter the result cache or masquerade as simulation output (a runtime
  guard in ``ResultCache.put`` enforces this).
"""

from .active import ExploreStats, SurrogateConfig, explore, resolve_surrogate
from .features import FEATURE_NAMES, feature_dict, feature_vector
from .model import SurrogateModel
from .results import PredictedResult

__all__ = [
    "ExploreStats",
    "FEATURE_NAMES",
    "PredictedResult",
    "SurrogateConfig",
    "SurrogateModel",
    "explore",
    "feature_dict",
    "feature_vector",
    "resolve_surrogate",
]
