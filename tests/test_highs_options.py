"""HiGHS skips its feasibility-jump start exactly on warm-started solves.

HiGHS runs a feasibility-jump heuristic before the root LP to find a first
incumbent.  A scheduling solve whose warm start ``solve_model`` verified
already holds one, so the HiGHS backend switches the heuristic off there,
and only there.  Pinned here:

* (a) the option reaches ``milp`` only with a warm start that verifies;
* (b) a HiGHS build that rejects it (``AttributeError``) costs one retry,
  after which no solve passes it;
* (c) passing it warns nothing;
* (d) with or without the warm start, small generated assays solve to the
  same ``tE`` and objective;
* (e) the vectorized warm-start check rejects what the row-by-row
  reference rejects.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import build_pcr
from repro.ilp import (
    HighsBackend, Model, SolverOptions, SolverStatus, WarmStart, get_backend, solve_model,
)
from repro.ilp.backends import highs as highs_module
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.synthesis.config import FlowConfig, solver_options_for
from repro.synthesis.flow import build_library

from ilp_reference import reference_feasible_objective
from solve_capture import captured_solves
from test_solver_backends import paper_scheduler

pytestmark = pytest.mark.skipif(not HighsBackend().is_available(),
                                reason="scipy not installed")

OPTION = "mip_heuristic_run_feasibility_jump"


def covering() -> Model:
    """``min 3x + 2y`` over integers with ``x + y >= 2``, ``y <= 1``: optimum 5."""
    model = Model("covering")
    x = model.add_integer("x", low=0, up=4)
    y = model.add_integer("y", low=0, up=1)
    model.add_constraint(x + y >= 2)
    model.minimize(3 * x + 2 * y)
    return model


def highs_with(warm=None) -> SolverOptions:
    return SolverOptions(backend="highs", warm_start=warm)


@pytest.fixture()
def milp_calls(monkeypatch):
    """The options of every ``milp`` call, on a build that takes the option."""
    if highs_module._milp_iv is None:
        pytest.skip("this scipy's milp cannot pass HiGHS-only options")
    monkeypatch.setattr(get_backend("highs"), "takes_feasibility_jump_option", True)
    calls = []
    original = highs_module.milp

    def spy(**kwargs):
        calls.append(dict(kwargs["options"]))
        return original(**kwargs)

    monkeypatch.setattr(highs_module, "milp", spy)
    return calls


# ------------------------------------------------------------------ (a)

def test_a_verified_warm_start_switches_the_heuristic_off(milp_calls):
    result = solve_model(covering(), highs_with(WarmStart({"x": 2.0, "y": 0.0})))
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(5.0)
    assert [call.get(OPTION) for call in milp_calls] == [False]


def test_without_a_warm_start_the_heuristic_runs(milp_calls):
    result = solve_model(covering(), highs_with())
    assert result.status is SolverStatus.OPTIMAL
    assert [OPTION in call for call in milp_calls] == [False]


@pytest.mark.parametrize("values", [
    {"x": 0.0, "y": 1.0},   # breaks the row
    {"x": 2.0},             # names too few variables
    {"x": 1.5, "y": 1.0},   # fractional
], ids=["infeasible", "partial", "fractional"])
def test_a_warm_start_that_does_not_verify_keeps_the_heuristic(milp_calls, values):
    result = solve_model(covering(), highs_with(WarmStart(values)))
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(5.0)
    assert [OPTION in call for call in milp_calls] == [False]


# ------------------------------------------------------------------ (b)

def test_a_build_without_the_option_falls_back_once(monkeypatch):
    monkeypatch.setattr(get_backend("highs"), "takes_feasibility_jump_option", True)
    calls = []
    original = highs_module.milp

    def older_build(**kwargs):
        calls.append(dict(kwargs["options"]))
        if OPTION in kwargs["options"]:
            raise AttributeError(f"'HighsOptions' object has no attribute '{OPTION}'")
        return original(**kwargs)

    monkeypatch.setattr(highs_module, "milp", older_build)
    warm = WarmStart({"x": 2.0, "y": 0.0})
    first = solve_model(covering(), highs_with(warm))
    assert first.status is SolverStatus.OPTIMAL
    assert [OPTION in call for call in calls] == [True, False]
    second = solve_model(covering(), highs_with(warm))
    assert second.status is SolverStatus.OPTIMAL
    assert [OPTION in call for call in calls] == [True, False, False]


def test_an_attribute_error_without_the_option_propagates(monkeypatch):
    def broken(**kwargs):
        raise AttributeError("not about the option")

    monkeypatch.setattr(highs_module, "milp", broken)
    with pytest.raises(AttributeError, match="not about the option"):
        solve_model(covering(), highs_with())


# ------------------------------------------------------------------ (c)

def test_a_warm_started_pcr_schedule_warns_nothing(milp_calls):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        schedule = paper_scheduler("PCR", "highs").schedule(build_pcr())
    assert schedule.solve.backend == "highs"
    assert schedule.solve.status is SolverStatus.OPTIMAL
    assert [call.get(OPTION) for call in milp_calls] == [False]


# ------------------------------------------------------------------ (d)

@settings(max_examples=25, deadline=None)
@given(size=st.integers(6, 8), seed=st.integers(0, 2**16))
def test_the_warm_start_moves_no_optimum(size, seed):
    graph = random_assay(RandomAssayConfig(num_operations=size, seed=seed))
    config = FlowConfig.paper_defaults_for(graph.name)
    library = build_library(config)
    solved = []
    for warm in (True, False):
        schedule = IlpScheduler(library, IlpSchedulerConfig(
            transport_time=config.transport_time, alpha=config.alpha, beta=config.beta,
            solver=solver_options_for(config, "scheduler"), warm_start_heuristic=warm,
        )).schedule(graph)
        assert schedule.solve.status is SolverStatus.OPTIMAL
        solved.append(schedule)
    with_warm, cold = solved
    assert with_warm.makespan == cold.makespan
    assert with_warm.solve.objective == pytest.approx(cold.solve.objective, rel=1e-4)


# ------------------------------------------------------------------ (e)

@pytest.mark.parametrize("values, verdict", [
    ({"x": 1.0, "y": 2.0}, 7.0),
    ({"x": 1.0, "y": 2.0 + 1e-7}, pytest.approx(7.0)),   # within the tolerance
    ({"x": 1.0, "y": 11.0}, None),                      # above y's bound only
    ({"x": 1.5, "y": 2.0}, None),                       # x fractional only
    ({"x": 1.0, "y": 1.0}, None),                       # x + y >= 3 broken only
    ({"x": 1.0}, None),                                 # incomplete
], ids=["feasible", "within-tolerance", "bound", "integrality", "row", "incomplete"])
def test_the_vectorized_check_rejects_what_the_row_walk_rejects(values, verdict):
    model = Model("checked")
    x = model.add_integer("x", low=0, up=5)
    y = model.add_continuous("y", low=0, up=10)
    model.add_constraint(x + y >= 3)
    model.add_constraint(x - y <= 1)
    model.minimize(x + 3 * y)
    assert model.feasible_objective(values) == verdict
    assert reference_feasible_objective(model, values) == verdict


def test_the_vectorized_check_agrees_on_a_scheduling_warm_start():
    graph = random_assay(RandomAssayConfig(num_operations=8, seed=3))
    with captured_solves() as calls:
        paper_scheduler(graph.name, "highs").schedule(graph)
    [(model, options, _)] = calls
    values = dict(options.warm_start.values)
    objective = model.feasible_objective(values)
    assert objective is not None
    assert objective == pytest.approx(reference_feasible_objective(model, values))
    # The completion time one past its bound: both reject it.
    values["tE"] = model.get_var("tE").up + 1
    assert model.feasible_objective(values) is None
    assert reference_feasible_objective(model, values) is None
