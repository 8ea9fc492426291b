"""Warm-start contract tests, from the backend up to the exploration engine.

The invariant pinned at every layer: a warm start is *runtime advice* — it
may change how many nodes a proof takes, never the reported status or
objective, and an unusable incumbent is silently ignored rather than
corrupting the solve.  Layers covered:

* **backend** — ``BranchAndBoundBackend`` consumes a valid incumbent
  (``warm_start_used``), rejects infeasible/partial/fractional ones, and
  returns the identical status + objective either way (hypothesis-pinned
  over random all-integer models);
* **HiGHS** — scipy's ``milp`` has no warm-start API, so the option is a
  graceful no-op that still reports ``warm_start_used=False``;
* **scheduler** — ``IlpScheduler.schedule(graph, warm_hint=...)`` seeds the
  solve from a neighboring schedule without changing the makespan, and a
  hint that breaks a row never displaces the valid heuristic seed;
* **flow** — under a 0.1 s budget the warm-started branch-and-bound backend
  still returns a generated graph's optimal makespan through
  ``synthesize()``;
* **exploration** — an acceptance-scale 24-config sweep on the
  branch-and-bound backend engages warm starts and leaves the frontier
  exactly as a cold run computes it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.ilp import (
    BranchAndBoundBackend,
    HighsBackend,
    Model,
    SolverOptions,
    SolverStatus,
    WarmStart,
    lin_sum,
    solve_model,
)
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.synthesis.config import FlowConfig, apply_solver_override
from repro.synthesis.flow import build_library, synthesize

from test_bb_differential import integer_models

SCIPY_AVAILABLE = HighsBackend().is_available()
needs_scipy = pytest.mark.skipif(not SCIPY_AVAILABLE, reason="scipy not installed")

BB = SolverOptions(backend="branch-and-bound")


def knapsack() -> Model:
    model = Model("knapsack")
    values, weights = [6, 10, 12], [1, 2, 3]
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.add_constraint(lin_sum(w * i for w, i in zip(weights, items)) <= 4)
    model.maximize(lin_sum(v * i for v, i in zip(values, items)))
    return model


# Optimum: items 1+2 (weight 2+3 > 4 — no), recompute: capacities force
# item0+item2 (weight 4, value 18)?  item0+item1 = weight 3, value 16;
# item0+item2 = weight 4, value 18 — the optimum pinned below.
KNAPSACK_OPT = {"item0": 1.0, "item1": 0.0, "item2": 1.0}
KNAPSACK_FEASIBLE = {"item0": 1.0, "item1": 1.0, "item2": 0.0}


class TestBranchAndBoundWarmStart:
    def test_valid_incumbent_is_consumed_without_changing_the_answer(self):
        cold = knapsack().solve(BB)
        warm = knapsack().solve(
            SolverOptions(backend="branch-and-bound",
                          warm_start=WarmStart(values=KNAPSACK_OPT)),
        )
        assert cold.status is SolverStatus.OPTIMAL
        assert warm.status is cold.status
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.warm_start_used is True
        assert cold.warm_start_used is False

    def test_suboptimal_feasible_incumbent_does_not_stop_the_search_early(self):
        warm = knapsack().solve(
            SolverOptions(backend="branch-and-bound",
                          warm_start=WarmStart(values=KNAPSACK_FEASIBLE)),
        )
        assert warm.status is SolverStatus.OPTIMAL
        # value(16) incumbent must be beaten by the true optimum (18).
        assert warm.objective == pytest.approx(18.0)
        assert warm.warm_start_used is True

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param({"item0": 1.0, "item1": 1.0, "item2": 1.0},
                         id="violates-capacity"),
            pytest.param({"item0": 1.0}, id="partial-assignment"),
            pytest.param({"item0": 0.4, "item1": 0.0, "item2": 0.0},
                         id="fractional-binary"),
            pytest.param({}, id="empty"),
        ],
    )
    def test_unusable_incumbents_are_silently_ignored(self, values):
        result = knapsack().solve(
            SolverOptions(backend="branch-and-bound",
                          warm_start=WarmStart(values=values)),
        )
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(18.0)
        assert result.warm_start_used is False

    @settings(max_examples=40, deadline=None)
    @given(integer_models())
    def test_seeding_with_the_cold_optimum_never_changes_the_answer(self, model):
        """The status/objective invariance, property-tested.

        The strongest possible warm start — the cold run's own optimal
        point — must reproduce the cold status and objective exactly; it
        can only shrink the proof tree.
        """
        cold = model.solve(SolverOptions(backend="branch-and-bound",
                                         time_limit_s=10.0))
        if cold.status is not SolverStatus.OPTIMAL:
            assert cold.status is SolverStatus.INFEASIBLE
            return
        warm = model.solve(
            SolverOptions(
                backend="branch-and-bound",
                time_limit_s=10.0,
                warm_start=WarmStart(values=dict(cold.values)),
            ),
        )
        assert warm.status is cold.status
        assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
        assert warm.warm_start_used is True
        assert warm.values == cold.values or (
            warm.objective == pytest.approx(cold.objective, abs=1e-6)
        )


class TestHighsWarmStart:
    @needs_scipy
    def test_highs_treats_the_option_as_a_graceful_no_op(self):
        cold = knapsack().solve(SolverOptions(backend="highs"))
        warm = knapsack().solve(
            SolverOptions(backend="highs",
                          warm_start=WarmStart(values=KNAPSACK_OPT)),
        )
        assert warm.status is cold.status
        assert warm.objective == pytest.approx(cold.objective)
        # scipy's milp has no warm-start API: the flag must stay honest.
        assert warm.warm_start_used is False

    def test_default_backend_reports_its_own_consumption(self):
        result = solve_model(
            knapsack(),
            SolverOptions(warm_start=WarmStart(values=KNAPSACK_OPT)),
        )
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(18.0)
        if result.backend_name == "highs":
            assert result.warm_start_used is False
        else:
            assert result.backend_name == "branch-and-bound"
            assert result.warm_start_used is True


class TestSchedulerWarmStart:
    def make_scheduler(self, library, time_limit_s=15.0, **overrides):
        options = SolverOptions(time_limit_s=time_limit_s, backend="branch-and-bound")
        return IlpScheduler(
            library,
            IlpSchedulerConfig(transport_time=10, alpha=100.0, beta=0.0,
                               solver=options, **overrides),
        )

    def test_neighbor_hint_preserves_the_makespan(self):
        config = FlowConfig(storage_aware=False)
        library = build_library(config)
        graph = assay_by_name("PCR")
        hint = ListScheduler(
            library, ListSchedulerConfig(transport_time=10)
        ).schedule(graph)

        cold = self.make_scheduler(library).schedule(graph)
        warm = self.make_scheduler(library).schedule(graph, warm_hint=hint)

        assert warm.makespan == cold.makespan == 330
        assert warm.solve.warm_start_used is True

    def test_infeasible_neighbor_hint_does_not_displace_the_heuristic_seed(
        self, diamond_graph
    ):
        """A hint solved without transport scores lower than the heuristic
        seed but breaks precedence here: it is dropped, and the solve still
        runs from the (verified) heuristic seed."""
        library = default_device_library(num_mixers=2)
        hint = ListScheduler(
            library, ListSchedulerConfig(transport_time=0)
        ).schedule(diamond_graph)
        plain = self.make_scheduler(library).schedule(diamond_graph)
        hinted = self.make_scheduler(library).schedule(diamond_graph, warm_hint=hint)

        assert hint.makespan < plain.makespan
        assert hinted.solve.warm_start_used is True
        assert hinted.solve.objective == pytest.approx(plain.solve.objective)

    def test_without_any_hint_or_heuristic_no_warm_start_is_reported(self):
        library = build_library(FlowConfig(storage_aware=False))
        scheduler = self.make_scheduler(
            library, time_limit_s=1.0, warm_start_heuristic=False
        )
        # An unseeded time-limited solve still returns a valid (if worse)
        # incumbent — what matters here is that the flag stays honest.
        schedule = scheduler.schedule(assay_by_name("PCR"))
        assert schedule.makespan >= 330
        assert schedule.solve.warm_start_used is False


class TestAnytimeBranchAndBound:
    def test_pool_graph_returns_the_optimum_within_a_tiny_budget(self, loose_bound_guard):
        """Anytime quality, not proof time: on this generated 8-operation
        graph (graph 32 of the ilp-exact benchmark pool at seed 1) the
        list-heuristic warm start is optimal (objective 25010, tE 250,
        proven by HiGHS) but the certified lower bound (24000) cannot show
        it, so the solve reaches branch and bound, whose interval bounds
        cannot prove it either.  The warm start is the incumbent from node
        one, so a 0.1 s budget returns tE 250."""
        graph = random_assay(RandomAssayConfig(num_operations=8, seed=3944564918034806355))
        config = FlowConfig.paper_defaults_for(graph.name)
        config.ilp_time_limit_s = 0.1
        config.archsyn_time_limit_s = 0.1
        result = synthesize(graph, apply_solver_override(config, "branch-and-bound"))
        loose_bound_guard()
        assert result.execution_time == 250
        assert result.schedule.solve.backend == "branch-and-bound"
        assert result.schedule.solve.warm_start_used is True


class TestExplorationWarmStart:
    """Acceptance-scale sweep: 24 configs, warm-started, frontier unchanged."""

    PAYLOAD = {
        "name": "warmstart-ab",
        "workloads": [{"assay": "PCR"}],
        # transport_time is the only schedule-slice axis (2 exact solves);
        # pitch / storage_segment_length fan the 24 configs out across the
        # physical stage, which is where stage sharing pays.
        "axes": {"transport_time": [8, 10],
                 "pitch": [5.0, 5.5, 6.0, 6.5, 7.0, 7.5],
                 "storage_segment_length": [3.0, 4.0]},
        "base": {"scheduler_backend": "branch-and-bound",
                 "storage_aware": False, "ilp_time_limit_s": 15.0},
        "objectives": ["makespan", "storage_cells", "device_count"],
        "strategy": "exhaustive",
    }

    @pytest.fixture(scope="class")
    def reports(self):
        from repro.explore import ExplorationEngine, ExplorationSpec

        spec = ExplorationSpec.from_payload(self.PAYLOAD)
        assert spec.candidate_count() == 24
        warm = ExplorationEngine(spec, warm_start=True).run()
        cold = ExplorationEngine(spec, warm_start=False).run()
        return warm, cold

    def test_warm_start_engages_on_at_least_one_candidate(self, reports):
        warm, _cold = reports
        assert warm.evaluated == 24
        assert warm.failed == 0
        assert warm.warm_started >= 1
        assert warm.summary()["warm_started"] == warm.warm_started

    def test_frontier_contents_are_unchanged_by_warm_starting(self, reports):
        warm, cold = reports
        warm_entries = sorted(
            (e.candidate_id, e.objectives) for e in warm.frontier.entries()
        )
        cold_entries = sorted(
            (e.candidate_id, e.objectives) for e in cold.frontier.entries()
        )
        assert warm_entries == cold_entries
        assert warm_entries, "frontier must be non-empty"

    def test_stage_sharing_is_not_disturbed(self, reports):
        warm, _cold = reports
        # transport_time is the only scheduling axis: 2 solves for 24
        # configs, exactly as a cold sweep shares them.
        assert warm.scheduling_solves == 2
