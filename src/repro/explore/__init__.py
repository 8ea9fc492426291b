"""Design-space exploration: multi-objective Pareto search over flow configs
and synthetic workloads.

The subsystem the ``repro explore`` CLI subcommand and the synthesis
service's exploration submissions are built on:

* :mod:`repro.explore.spec` — the declarative JSON
  :class:`~repro.explore.spec.ExplorationSpec` (workloads × config axes,
  objectives, strategy, budget) and candidate enumeration;
* :mod:`repro.explore.objectives` — the registry of minimized objectives
  (makespan, storage cells, device count, chip area, wall time) with the
  cheap/full split the triage strategy exploits;
* :mod:`repro.explore.frontier` — the incremental
  :class:`~repro.explore.frontier.ParetoFrontier`;
* :mod:`repro.explore.strategies` — the search strategies, a fixed name
  map (exhaustive, random, successive-halving);
* :mod:`repro.explore.engine` — the
  :class:`~repro.explore.engine.ExplorationEngine` driving everything
  through the stage-granular batch layer, with resumable persisted state.

See ``docs/explore.md`` for the spec format and semantics.
"""

from repro.explore.engine import (
    ExplorationEngine,
    ExplorationReport,
    ExplorationState,
    format_exploration_report,
)
from repro.explore.frontier import (
    FrontierEntry,
    ParetoFrontier,
    dominates,
    is_dominance_consistent,
)
from repro.explore.objectives import (
    DEFAULT_OBJECTIVES,
    OBJECTIVES,
    cheap_objective_names,
    objective_names,
    objective_values,
    schedule_objective_values,
)
from repro.explore.spec import (
    Candidate,
    ExplorationSpec,
    candidate_job,
    enumerate_candidates,
    load_spec,
)
from repro.explore.strategies import (
    STRATEGIES,
    SearchStrategy,
    StrategyContext,
    get_strategy,
    strategy_names,
)

__all__ = [
    "Candidate",
    "DEFAULT_OBJECTIVES",
    "ExplorationEngine",
    "ExplorationReport",
    "ExplorationSpec",
    "ExplorationState",
    "FrontierEntry",
    "OBJECTIVES",
    "ParetoFrontier",
    "STRATEGIES",
    "SearchStrategy",
    "StrategyContext",
    "candidate_job",
    "cheap_objective_names",
    "dominates",
    "enumerate_candidates",
    "format_exploration_report",
    "get_strategy",
    "is_dominance_consistent",
    "load_spec",
    "objective_names",
    "objective_values",
    "schedule_objective_values",
    "strategy_names",
]
