"""Search strategies, selected by name.

Mirrors :mod:`repro.ilp.backends`: :data:`STRATEGIES` maps each name to its
strategy, and an exploration spec selects one by that name.  There are
three:

``"exhaustive"``
    Every candidate of the space, in spec order, until the budget runs out.
``"random"``
    A seeded uniform sample (without replacement) of ``budget`` candidates —
    the classic baseline when the space is too large to enumerate.
``"successive-halving"``
    Pays the *cheap* stage first: every candidate's scheduling solve runs
    (deduplicated by the stage cache, so configs sharing a schedule slice
    solve once), candidates whose cheap-objective vectors are Pareto
    dominated are pruned, and only the survivors receive the expensive
    architecture-synthesis and physical-design stages.  Exact when every
    spec objective is cheap (schedule-derivable); with full-only objectives
    in play it is a heuristic — a pruned config could have redeemed itself
    on chip area — which is the usual successive-halving trade.

A strategy only *selects* candidates; evaluation, budget enforcement,
frontier updates, and resume bookkeeping all live in the engine-provided
:class:`StrategyContext`, so strategies stay ~ten lines of policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.explore.frontier import dominates
from repro.explore.objectives import cheap_objective_names
from repro.explore.spec import Candidate, ExplorationSpec


@dataclass
class StrategyContext:
    """What the engine hands a strategy: the space plus evaluation callbacks.

    ``evaluate`` runs full syntheses (through the batch engine, budget
    capped, resume aware) and updates the frontier; ``cheap_values`` runs
    only the schedule stage and returns each candidate's cheap-objective
    vector (candidates whose scheduling fails are absent from the map);
    ``remaining_budget`` is how many more *full* evaluations the budget
    admits; ``evaluated_ids`` is the set of candidate ids already resolved
    (this run or a resumed one).  ``rng`` is seeded from the spec, so a
    strategy's randomness is reproducible and identical on resume.
    """

    spec: ExplorationSpec
    candidates: List[Candidate]
    rng: random.Random
    evaluate: Callable[[Sequence[Candidate]], None]
    cheap_values: Callable[[Sequence[Candidate]], Dict[str, Dict[str, float]]]
    remaining_budget: Callable[[], int]
    evaluated_ids: Callable[[], Set[str]]


class SearchStrategy:
    """Base class: subclasses set :attr:`name` and implement :meth:`run`."""

    name: str = ""

    def run(self, context: StrategyContext) -> None:
        """Select and evaluate candidates until done or out of budget."""
        raise NotImplementedError


class ExhaustiveStrategy(SearchStrategy):
    """Grid search: evaluate the whole space in spec order (budget capped)."""

    name = "exhaustive"

    def run(self, context: StrategyContext) -> None:
        """Evaluate every candidate; the context stops at the budget."""
        context.evaluate(context.candidates)


class RandomStrategy(SearchStrategy):
    """Seeded uniform sampling without replacement, ``budget`` candidates."""

    name = "random"

    def run(self, context: StrategyContext) -> None:
        """Sample the remaining budget from the *unevaluated* candidates.

        Resumed candidates already consumed budget, so the pool excludes
        them — a resumed random exploration tops the budget up instead of
        wasting draws on ids the engine would skip.  Identical reruns stay
        deterministic: same state, same seed, same pool, same sample.
        """
        done = context.evaluated_ids()
        pool = [c for c in context.candidates if c.candidate_id not in done]
        count = min(context.remaining_budget(), len(pool))
        if count <= 0:
            return
        sample = context.rng.sample(pool, count)
        context.evaluate(sample)


class SuccessiveHalvingStrategy(SearchStrategy):
    """Cheap-stage triage, then full synthesis only for the non-dominated."""

    name = "successive-halving"

    def run(self, context: StrategyContext) -> None:
        """Prune on cheap objectives, then fully evaluate the survivors.

        With no cheap objective in the spec there is nothing to triage on,
        so every candidate advances (the strategy degrades to exhaustive).
        """
        cheap_names = cheap_objective_names(context.spec.objectives)
        if not cheap_names:
            context.evaluate(context.candidates)
            return
        vectors = context.cheap_values(context.candidates)
        survivors = [
            candidate
            for candidate in context.candidates
            if candidate.candidate_id in vectors
            and not _cheap_dominated(
                candidate.candidate_id, vectors, cheap_names
            )
        ]
        context.evaluate(survivors)


def _cheap_dominated(
    candidate_id: str,
    vectors: Dict[str, Dict[str, float]],
    names: Tuple[str, ...],
) -> bool:
    """Whether another candidate's cheap vector dominates this one's."""
    mine = vectors[candidate_id]
    return any(
        other_id != candidate_id and dominates(other, mine, names)
        for other_id, other in vectors.items()
    )


#: Every search strategy by name.  Built once here and never mutated.
STRATEGIES: Dict[str, SearchStrategy] = {
    strategy.name: strategy
    for strategy in (ExhaustiveStrategy(), RandomStrategy(), SuccessiveHalvingStrategy())
}


def get_strategy(name: str) -> SearchStrategy:
    """The strategy named ``name`` (:class:`ValueError` if there is none)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown search strategy {name!r}; known: {list(strategy_names())}"
        ) from None


def strategy_names() -> Tuple[str, ...]:
    """Strategy names, sorted (spec validation and ``--help``)."""
    return tuple(sorted(STRATEGIES))
