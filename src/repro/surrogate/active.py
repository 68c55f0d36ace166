"""Uncertainty-gated active sampling over a sweep grid.

The loop answers one question per *decision group* — all grid cells
that differ only in policy (same workload, config, interleave, seed,
timing): **which policy wins, and which static page size wins?**  It
spends exact simulations only where the answer is actually at stake:

1. **Corpus seed.**  Every cell already present in the result cache
   (read by key, as every mode reads it) is free training data.  A
   small stratified sample of the rest (evenly spaced through each
   group, so both page-size extremes are always covered) is simulated
   exactly.
2. **Fit.**  A :class:`~repro.surrogate.model.SurrogateModel` per
   target (performance, remote ratio) over the exact rows.
3. **Eliminate.**  For each decision (the full group, and its
   static-paging subset for the page-size answer), a cell stays a
   *candidate* while its optimistic score ``predicted + optimism *
   uncertainty`` still reaches the best pessimistic score ``score -
   uncertainty`` seen in that decision — the UCB-style overlap test.
   Candidate cells that are not yet exact are simulated (best first,
   within the per-round budget slice); everything else is pruned.
4. **Refit and repeat** until no decision has unresolved candidates or
   the exact budget is spent.  Cells never simulated get a
   :class:`~repro.surrogate.results.PredictedResult`.

Exact cells run through the caller-supplied ``exact_fn`` — in practice
:class:`~repro.sim.parallel.SweepRunner`'s ordinary pool/coordinator
machinery — so every exactly simulated cell is bit-identical
to the same cell in a plain sweep, cached under the same fingerprint.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..sim.results import SimResult
from .features import feature_matrix
from .model import SurrogateModel
from .results import PredictedResult

#: On/off spellings :func:`resolve_surrogate` accepts besides booleans,
#: integer budgets and a :class:`SurrogateConfig`.
_FALSY = {"", "0", "off", "false", "no"}
_TRUTHY = {"1", "on", "true", "yes"}


@dataclasses.dataclass(frozen=True)
class SurrogateConfig:
    """Tuning knobs of the active-sampling loop."""

    #: hard ceiling on exact simulations (cache hits are free); None
    #: derives it from ``budget_fraction``
    budget: Optional[int] = None
    #: default budget as a fraction of the (deduplicated) grid
    budget_fraction: float = 0.2
    #: fraction of each decision group simulated up front (stratified)
    seed_fraction: float = 0.06
    #: per-decision floor for the stratified seed
    min_seed: int = 2
    #: grids smaller than this are simply run exactly — the model has
    #: nothing to amortize
    min_grid: int = 24
    #: how far a candidate's optimistic score may lean on uncertainty
    #: (larger = more conservative = more exact simulations)
    optimism: float = 1.0
    #: refit rounds before trusting the model's remaining predictions
    rounds: int = 8
    #: exact cells per round; None spreads the post-seed budget over
    #: the rounds so the model refits *between* batches instead of
    #: spending everything on round-one guesses
    round_batch: Optional[int] = None

    def resolve_budget(self, grid: int) -> int:
        if self.budget is not None:
            return max(1, int(self.budget))
        return max(1, int(math.floor(self.budget_fraction * grid)))

    def resolve_round_batch(self, budget_left: int, rounds_left: int) -> int:
        if self.round_batch is not None:
            return max(1, int(self.round_batch))
        return max(4, math.ceil(budget_left / max(1, rounds_left)))


def resolve_surrogate(
    value: Union[None, bool, str, int, SurrogateConfig] = None,
) -> Optional[SurrogateConfig]:
    """Surrogate spellings -> :class:`SurrogateConfig` (or None = off).

    ``None`` means off (the surrogate is never ambient); booleans and
    on/off strings toggle the default configuration; an integer (or
    integer string) greater than one is taken as the exact-cell budget.
    """
    if isinstance(value, SurrogateConfig):
        return value
    if value is None:
        return None
    if isinstance(value, bool):
        return SurrogateConfig() if value else None
    if isinstance(value, int):
        return SurrogateConfig(budget=value) if value > 1 else (
            SurrogateConfig() if value == 1 else None
        )
    text = str(value).strip().lower()
    if text in _FALSY:
        return None
    if text in _TRUTHY:
        return SurrogateConfig()
    try:
        budget = int(text)
    except ValueError:
        raise ValueError(
            f"surrogate must be on/off or an integer budget, got {value!r}"
        ) from None
    return resolve_surrogate(budget)


@dataclasses.dataclass
class ExploreStats:
    """Accounting of one :func:`explore` call."""

    grid_cells: int = 0
    unique_cells: int = 0
    corpus_hits: int = 0
    exact_simulated: int = 0
    predicted: int = 0
    rounds: int = 0
    budget: int = 0
    converged: bool = False

    @property
    def reduction(self) -> float:
        """Grid cells per exact simulation (the headline ratio)."""
        exact = self.exact_simulated + self.corpus_hits
        return self.grid_cells / exact if exact else float("inf")


@dataclasses.dataclass
class ExploreOutcome:
    """Per-cell results (exact or predicted, input order) plus stats."""

    results: List[Union[SimResult, PredictedResult, None]]
    stats: ExploreStats


def _group_key(cell) -> str:
    """Decision-group identity: the cell's fingerprint inputs minus the
    policy — cells in one group differ only in what places their pages."""
    from ..sim.parallel import _jsonable

    payload = {
        "workload": _jsonable(cell.workload),
        "config": _jsonable(cell.config) if cell.config is not None else None,
        "interleave": _jsonable(cell.interleave),
        "remote_cache": cell.remote_cache,
        "seed": cell.seed,
        "timing": _jsonable(cell.timing),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _is_static_paging(cell) -> bool:
    from ..policies.static_paging import StaticPaging

    return isinstance(cell.policy, StaticPaging)


def _stratified_indices(count: int, take: int) -> List[int]:
    """``take`` indices spread evenly through ``range(count)``, always
    including both ends (the page-size extremes of a sorted sweep)."""
    take = max(0, min(count, take))
    if take == 0:
        return []
    if take == 1:
        return [0]
    positions = np.linspace(0, count - 1, take)
    return sorted({int(round(p)) for p in positions})


def _performance(result: SimResult) -> float:
    """The performance target, in **log space**.

    Performance levels differ per decision group (thread count,
    footprint), while policy and page-size effects are *multiplicative*
    ratios that transfer across groups.  Log-space targets make those
    ratios additive: the regression learns the group level from the
    workload features and the policy effect globally, instead of k-NN
    importing a neighbouring group's absolute level.  Every comparison
    the sampler makes (argmax, UCB bounds) is monotonic, so ranking in
    log space ranks performance.
    """
    return math.log(result.performance)


def _remote_ratio(result: SimResult) -> float:
    return result.remote_ratio


def explore(
    cells: Sequence,
    exact_fn: Callable[[List[int]], Dict[int, Optional[SimResult]]],
    config: Optional[SurrogateConfig] = None,
    corpus: Optional[Dict[str, SimResult]] = None,
    keys: Optional[List[str]] = None,
) -> ExploreOutcome:
    """Run the active-sampling loop over ``cells``.

    ``exact_fn`` receives a list of *leader* cell indices and returns
    ``{index: SimResult-or-None}`` for them (None = the cell failed
    under a skipping error policy; it is dropped from training and
    reported as None).  ``corpus`` maps cell fingerprints to cached
    results the loop may train on for free; ``keys`` are the cells'
    fingerprints (computed here when omitted).
    """
    from ..sim.parallel import cell_fingerprint

    config = config or SurrogateConfig()
    cells = list(cells)
    if keys is None:
        keys = [cell_fingerprint(cell) for cell in cells]
    stats = ExploreStats(grid_cells=len(cells))

    # Deduplicate: everything below operates on leader indices only.
    leaders: Dict[str, int] = {}
    leader_indices: List[int] = []
    for i, key in enumerate(keys):
        if key not in leaders:
            leaders[key] = i
            leader_indices.append(i)
    stats.unique_cells = len(leader_indices)
    budget = config.resolve_budget(len(leader_indices))
    stats.budget = budget

    exact: Dict[int, Optional[SimResult]] = {}
    if corpus:
        for i in leader_indices:
            hit = corpus.get(keys[i])
            if hit is not None:
                exact[i] = hit
        stats.corpus_hits = len(exact)

    def run_exact(indices: List[int]) -> None:
        pending = [i for i in indices if i not in exact]
        if not pending:
            return
        outcomes = exact_fn(pending)
        for i in pending:
            exact[i] = outcomes.get(i)
        stats.exact_simulated += len(pending)

    # Tiny grids: the stratified seed would cover most of the grid
    # anyway, so skip the model entirely and simulate everything.
    if len(leader_indices) < config.min_grid or budget >= len(
        [i for i in leader_indices if i not in exact]
    ):
        run_exact(leader_indices)
        stats.converged = True
        return _finalize(cells, keys, leaders, exact, None, stats)

    # Decision sets: per group the full policy shoot-out, plus the
    # static-paging subset (the "selected page size" answer).
    groups: Dict[str, List[int]] = {}
    for i in leader_indices:
        groups.setdefault(_group_key(cells[i]), []).append(i)
    decisions: List[List[int]] = []
    for members in groups.values():
        decisions.append(members)
        static = [i for i in members if _is_static_paging(cells[i])]
        if 1 < len(static) < len(members):
            decisions.append(static)

    # --- 1. stratified seed ---
    # Positions are rotated per group: with one seed per group, group g
    # samples cell g % len(group), so a 36-group x 14-policy grid seeds
    # every policy somewhere instead of sampling the same grid column
    # 36 times — the model needs cross-policy truth to rank policies.
    seed_indices: List[int] = []
    for g, members in enumerate(groups.values()):
        unseen = [i for i in members if i not in exact]
        take = max(
            config.min_seed, math.ceil(config.seed_fraction * len(members))
        )
        # Spread through the group *including* already-known cells so
        # corpus coverage shifts the sample instead of doubling it.
        for pos in _stratified_indices(len(members), take):
            rotated = (pos + g) % len(members)
            if members[rotated] in exact:
                continue
            seed_indices.append(members[rotated])
        # Degenerate corpus layout: everything sampled was known; take
        # the first unseen cells so the group contributes *some* truth.
        if not any(i in seed_indices for i in members) and unseen:
            seed_indices.extend(unseen[: config.min_seed])
    seed_indices = seed_indices[:budget]
    run_exact(seed_indices)

    # --- 2..4. fit / eliminate / refit ---
    perf_model = SurrogateModel()
    remote_model = SurrogateModel()

    def fit_predict() -> Optional[Dict[int, Tuple[float, float, float]]]:
        """Refit on everything exact; return predictions for the rest
        (None when nothing trained or nothing left to predict)."""
        trained = [i for i, r in exact.items() if r is not None]
        if not trained:
            return None
        x = feature_matrix([cells[i] for i in trained])
        perf_model.fit(
            x, np.array([_performance(exact[i]) for i in trained])
        )
        remote_model.fit(
            x, np.array([_remote_ratio(exact[i]) for i in trained])
        )
        unknown = [i for i in leader_indices if i not in exact]
        if not unknown:
            return None
        query = feature_matrix([cells[i] for i in unknown])
        mean, unc = perf_model.predict(query)
        remote_mean, _ = remote_model.predict(query)
        return {
            i: (float(m), float(u), float(r))
            for i, m, u, r in zip(unknown, mean, unc, remote_mean)
        }

    for round_index in range(config.rounds):
        predictions = fit_predict()
        if predictions is None:
            stats.converged = True
            break
        stats.rounds += 1

        # Per decision set, classify its members.  A decision is
        # *resolved* once no rival's optimistic score reaches the best
        # pessimistic score — resolved decisions stop consuming budget
        # entirely, which is what lets wide-margin decisions (a policy
        # that wins by 25%) fund the flat page-size curves decided by
        # fractions of a percent.  Unresolved decisions contribute the
        # *pretender* (the current argmax while still only predicted —
        # it must become exact or fidelity is at the model's mercy),
        # the *challenger* (the strongest not-yet-exact rival by
        # predicted mean — decisions are won and lost in the gap
        # between pick and runner-up, so that gap is where an exact
        # sample buys the most fidelity), and the UCB-candidate pool.
        pretenders: List[int] = []
        challengers: List[Tuple[float, int]] = []
        wanted: Dict[int, float] = {}
        for members in decisions:
            best_lower = -math.inf
            best_index, best_score = None, -math.inf
            scored: List[Tuple[int, float, float]] = []
            for i in members:
                result = exact.get(i)
                if result is not None:
                    score, uncertainty = _performance(result), 0.0
                elif i in exact:  # failed exactly; cannot win
                    continue
                else:
                    score, uncertainty, _r = predictions[i]
                scored.append((i, score, uncertainty))
                best_lower = max(best_lower, score - uncertainty)
                if score > best_score:
                    best_index, best_score = i, score
            rivals = [
                (i, score, uncertainty)
                for i, score, uncertainty in scored
                if i != best_index
                and i not in exact
                and score + config.optimism * uncertainty >= best_lower
            ]
            if not rivals:
                continue  # resolved: the pick stands even pessimally
            if best_index is not None and best_index not in exact:
                if best_index not in pretenders:
                    pretenders.append(best_index)
            challenger, challenger_gap = None, -math.inf
            for i, score, uncertainty in rivals:
                optimistic = score + config.optimism * uncertainty
                # Rank by how deeply the rival overlaps its decision's
                # best lower bound, not by absolute score — a global
                # score sort would funnel the whole budget into the
                # loudest groups.
                wanted[i] = max(
                    wanted.get(i, -math.inf), optimistic - best_lower
                )
                if score - best_score > challenger_gap:
                    challenger, challenger_gap = i, score - best_score
            if challenger is not None:
                challengers.append((challenger_gap, challenger))
        if not pretenders and not wanted:
            stats.converged = True
            break
        remaining = budget - stats.exact_simulated
        if remaining <= 0:
            break
        # Pretenders first — they decide the answer — then challengers
        # closest to their pick (gap nearest zero: the decisions most
        # likely mis-ranked), then the rest of the candidate pool by
        # overlap depth.  Rounds are capped so later batches benefit
        # from refits on earlier ones.
        batch = list(pretenders)
        for gap, i in sorted(challengers, key=lambda t: (-t[0], t[1])):
            if i not in exact and i not in batch:
                batch.append(i)
        for i in sorted(wanted, key=lambda i: (-wanted[i], i)):
            if i not in exact and i not in batch:
                batch.append(i)
        cap = min(
            remaining,
            config.resolve_round_batch(
                remaining, config.rounds - round_index
            ),
        )
        run_exact(batch[:cap])

    # Final refit so the emitted predictions reflect *all* exact truth,
    # including the last round's batch.
    predictions = fit_predict()
    return _finalize(cells, keys, leaders, exact, predictions, stats)


def _finalize(
    cells: List,
    keys: List[str],
    leaders: Dict[str, int],
    exact: Dict[int, Optional[SimResult]],
    predictions: Optional[Dict[int, Tuple[float, float, float]]],
    stats: ExploreStats,
) -> ExploreOutcome:
    """Fan leader outcomes back out to every grid position."""
    n_trained = len([r for r in exact.values() if r is not None])
    outcomes: Dict[int, Union[SimResult, PredictedResult, None]] = {}
    for key, leader in leaders.items():
        if leader in exact:
            outcomes[leader] = exact[leader]
            continue
        if predictions is None or leader not in predictions:
            # Budget ran dry before this cell was ever scored (no fit
            # round happened); be explicit rather than inventing zeros.
            outcomes[leader] = None
            continue
        log_perf, log_unc, remote = predictions[leader]
        # Back out of log space: the error bar becomes the absolute
        # half-width exp(m)*(exp(u)-1), clamped so a wild early-round
        # uncertainty cannot overflow.
        performance = math.exp(log_perf)
        uncertainty = performance * math.expm1(min(log_unc, 50.0))
        outcomes[leader] = PredictedResult(
            workload=cells[leader].workload.abbr,
            policy=cells[leader].policy.name,
            performance=performance,
            remote_ratio=min(1.0, max(0.0, remote)),
            uncertainty=uncertainty,
            fingerprint=keys[leader],
            n_trained=n_trained,
        )
        stats.predicted += 1
    results: List[Union[SimResult, PredictedResult, None]] = [
        outcomes[leaders[keys[i]]] for i in range(len(cells))
    ]
    return ExploreOutcome(results=results, stats=stats)
