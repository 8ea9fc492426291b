"""Tests of the pluggable solver-backend subsystem.

Five contracts are pinned here:

* **Parity** — the HiGHS and branch-and-bound backends agree (status, and
  objective within tolerance) on a matrix of small ``ilp.Model`` fixtures,
  so the dependency-free backend is a real substitute, not a different
  answer.
* **Registry** — backends resolve by string key, unknown names fail loudly,
  and duplicate registration is rejected.
* **Limits** — a backend that stops at its limit with no better incumbent
  returns the caller's verified warm start as FEASIBLE, with the stronger
  bound and its gap; an unverifiable warm start keeps the limit status.
* **Flow threading** — a forced backend timeout completes the synthesis
  flow on the warm start instead of aborting, and the backend's identity
  and the solve's status, bound and gap travel into artifacts, results,
  and batch payloads.
* **Lowering** — ``Model.to_matrices`` yields CSR rows that evaluate like
  the constraints they come from, on the golden scheduling ILPs and on
  random models, without importing scipy.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.ilp import (
    BackendUnavailableError,
    BranchAndBoundBackend,
    HighsBackend,
    Model,
    SolverOptions,
    SolverStatus,
    WarmStart,
    backend_names,
    get_backend,
    lin_sum,
    solve_model,
)
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.ilp.backends import BACKENDS, DEFAULT_BACKEND
from repro.ilp.backends.base import SolverBackend
from repro.ilp.solver import SolveResult
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.synthesis.config import FlowConfig, solver_options_for
from repro.synthesis.flow import build_library

from ilp_reference import row_bounds, violated_rows

SCIPY_AVAILABLE = HighsBackend().is_available()
needs_scipy = pytest.mark.skipif(not SCIPY_AVAILABLE, reason="scipy not installed")


# ------------------------------------------------------------- model fixtures

def lp_corner() -> Model:
    model = Model("lp")
    x = model.add_continuous("x", low=0, up=10)
    y = model.add_continuous("y", low=0, up=10)
    model.add_constraint(x + y >= 4)
    model.minimize(3 * x + 5 * y)
    return model


def integer_rounding() -> Model:
    model = Model("ip")
    x = model.add_integer("x", low=0, up=10)
    model.add_constraint(2 * x >= 7)
    model.minimize(x)
    return model


def knapsack() -> Model:
    model = Model("knapsack")
    values, weights = [6, 10, 12], [1, 2, 3]
    items = [model.add_binary(f"item{i}") for i in range(3)]
    model.add_constraint(lin_sum(w * i for w, i in zip(weights, items)) <= 4)
    model.maximize(lin_sum(v * i for v, i in zip(values, items)))
    return model


def equality_pin() -> Model:
    model = Model("eq")
    x = model.add_integer("x", low=0, up=100)
    model.add_constraint(x == 42)
    model.minimize(x)
    return model


def mixed_assignment() -> Model:
    model = Model("mixed")
    x = model.add_integer("x", low=0, up=10)
    y = model.add_continuous("y", low=0, up=10)
    model.add_constraint(2 * x + y >= 7)
    model.add_constraint(y <= x)
    model.minimize(3 * x + y)
    return model


def covering_pair() -> Model:
    model = Model("cover")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add_constraint(a + b >= 1)
    model.add_constraint(b + c >= 1)
    model.add_constraint(a + c >= 1)
    model.minimize(2 * a + 3 * b + 4 * c)
    return model


def infeasible_box() -> Model:
    model = Model("infeasible")
    x = model.add_continuous("x", low=0, up=1)
    model.add_constraint(x >= 2)
    model.minimize(x)
    return model


def interior_equalities() -> Model:
    """Feasible only at an interior point — defeats the greedy dive."""
    model = Model("interior")
    x = model.add_integer("x", low=0, up=4)
    y = model.add_integer("y", low=0, up=4)
    model.add_constraint(x + y == 4)
    model.add_constraint(x - y == 0)
    model.minimize(x)
    return model


PARITY_FIXTURES = [
    lp_corner,
    integer_rounding,
    knapsack,
    equality_pin,
    mixed_assignment,
    covering_pair,
    infeasible_box,
    interior_equalities,
]


# ------------------------------------------------------------------- parity

@needs_scipy
@pytest.mark.parametrize("build", PARITY_FIXTURES, ids=lambda f: f.__name__)
def test_backend_parity_on_small_models(build):
    """Both backends agree on status and objective for every fixture."""
    highs = build().solve(SolverOptions(backend="highs"))
    model = build()
    bnb = model.solve(SolverOptions(backend="branch-and-bound"))
    assert bnb.backend_name == "branch-and-bound"
    assert highs.backend_name == "highs"
    if highs.status.is_feasible():
        # Branch and bound may report FEASIBLE where HiGHS proves OPTIMAL
        # (without an LP it cannot always close a box with free continuous
        # variables), but the solution value itself must agree.
        assert bnb.status.is_feasible()
        assert bnb.objective == pytest.approx(highs.objective, abs=1e-6)
        # The branch-and-bound solution must satisfy the model exactly, not
        # just match the objective.
        assert violated_rows(model) == []
    else:
        assert bnb.status is highs.status


@pytest.mark.parametrize("build", PARITY_FIXTURES, ids=lambda f: f.__name__)
def test_branch_and_bound_standalone(build):
    """The dependency-free backend needs no scipy: every fixture solves (or proves
    infeasibility) on its own."""
    model = build()
    result = model.solve(SolverOptions(backend="branch-and-bound"))
    assert result.status in (
        SolverStatus.OPTIMAL, SolverStatus.FEASIBLE, SolverStatus.INFEASIBLE,
    )
    if result.status.is_feasible():
        assert violated_rows(model) == []


def test_branch_and_bound_time_limit_without_incumbent():
    """A zero time budget on a dive-defeating model reports TIME_LIMIT."""
    model = interior_equalities()
    result = model.solve(SolverOptions(backend="branch-and-bound", time_limit_s=0.0))
    assert result.status is SolverStatus.TIME_LIMIT
    assert result.values == {}
    assert all(var.value is None for var in model.variables)


def test_branch_and_bound_respects_node_limit():
    model = interior_equalities()
    result = model.solve(SolverOptions(backend="branch-and-bound", node_limit=0))
    # No nodes may be explored; the root dive fails on this model, so there
    # is no incumbent either.
    assert result.status is SolverStatus.TIME_LIMIT


def test_branch_and_bound_empty_model():
    result = Model("empty").solve(SolverOptions(backend="branch-and-bound"))
    assert result.status is SolverStatus.OPTIMAL
    assert result.backend_name == "branch-and-bound"


def test_branch_and_bound_handles_lower_unbounded_integers():
    """Regression: branching on low=None integers must not overflow."""
    model = Model("lower-free")
    x = model.add_integer("x", low=None, up=5)
    y = model.add_integer("y", low=0, up=10)
    model.add_constraint(y - x >= 2)
    model.add_constraint(x >= -3)  # keeps the instance finite to enumerate
    model.minimize(y)
    result = model.solve(SolverOptions(backend="branch-and-bound"))
    assert result.status.is_feasible()
    assert result.objective == pytest.approx(0.0)
    assert violated_rows(model) == []


def test_branch_and_bound_gap_pruning_reports_honest_gap():
    """Regression: a mip_rel_gap-widened prune must not claim gap 0.0 when
    it may have discarded the true optimum."""
    model = Model("gapped")
    b = model.add_binary("b")
    y = model.add_integer("y", low=0, up=200)
    model.add_constraint(y + 10 * b >= 100)
    model.minimize(y)
    result = model.solve(
        SolverOptions(backend="branch-and-bound", mip_rel_gap=0.2)
    )
    assert result.status.is_feasible()
    # The incumbent is within the configured gap of the optimum (90)...
    assert result.objective <= 100.0
    if result.objective > 90.0:
        # ...and if pruning kept the worse incumbent, the reported gap must
        # admit it instead of asserting proven optimality.
        assert result.mip_gap is None or result.mip_gap > 0.0


def test_branch_and_bound_honours_the_deadline_on_cpa(monkeypatch):
    """CPA (55 operations): the deadline fires inside the first dive.

    The dive fixes about 1700 integers, far more than a 2 s limit allows;
    the search must stop there and return the verified warm start.  The
    time is measured around the backend's solve call.
    """
    timings = []
    original = BranchAndBoundBackend.solve

    def timed(self, model, options=None, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, model, options, **kwargs)
        finally:
            timings.append(time.perf_counter() - start)

    monkeypatch.setattr(BranchAndBoundBackend, "solve", timed)
    schedule = paper_scheduler("CPA", "branch-and-bound", time_limit_s=2.0).schedule(
        assay_by_name("CPA")
    )
    assert len(timings) == 1 and timings[0] < 3.0, timings
    assert schedule.solve.status is SolverStatus.FEASIBLE
    assert schedule.solve.warm_start_used


# ------------------------------------------------------------------ lowering

def paper_scheduler(assay: str, backend: str, time_limit_s: float = 60.0) -> IlpScheduler:
    """The exact scheduler of ``assay`` under its paper-default flow config."""
    config = replace(
        FlowConfig.paper_defaults_for(assay),
        scheduler_backend=backend,
        ilp_time_limit_s=time_limit_s,
    )
    return IlpScheduler(
        build_library(config),
        IlpSchedulerConfig(
            transport_time=config.transport_time,
            alpha=config.alpha,
            beta=config.beta,
            solver=solver_options_for(config, "scheduler"),
        ),
    )


class _Captured(Exception):
    pass


def scheduling_model(assay: str) -> Model:
    """The paper-default scheduling ILP of ``assay``, captured unsolved."""
    captured = []

    def capture(model, options=None):
        captured.append(model)
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Model, "solve", capture)
        with pytest.raises(_Captured):
            paper_scheduler(assay, DEFAULT_BACKEND).schedule(assay_by_name(assay))
    return captured[0]


def random_model(seed: int) -> Model:
    """Mixed variable kinds, sparse random rows, all three senses."""
    rng = random.Random(seed)
    model = Model(f"random{seed}")
    variables = [
        model.add_var(f"x{j}", low=-5, up=5, kind=rng.choice(["continuous", "integer", "binary"]))
        for j in range(rng.randint(1, 12))
    ]
    for _ in range(rng.randint(0, 15)):
        expr = lin_sum(rng.choice([0, 0, -2.5, 1, 3]) * v for v in variables)
        expr = expr + variables[rng.randrange(len(variables))] + rng.randint(-4, 4)
        rhs = rng.randint(-10, 10)
        con = model.add_constraint(rng.choice([expr <= rhs, expr >= rhs, expr == rhs]))
        # LinExpr drops zero coefficients itself; plant one to check that
        # the lowering does not store it either.
        con.expression.terms.setdefault(variables[-1], 0.0)
    model.minimize(lin_sum(rng.choice([0, 1, -2]) * v for v in variables))
    return model


LOWERING_MODELS = [
    pytest.param(lambda: scheduling_model("IVD"), id="IVD"),
    pytest.param(lambda: scheduling_model("PCR"), id="PCR"),
] + [pytest.param(lambda seed=seed: random_model(seed), id=f"random{seed}") for seed in range(8)]


@pytest.mark.parametrize("build", LOWERING_MODELS)
def test_csr_rows_evaluate_like_their_constraints(build):
    model = build()
    c, A, lower, upper, lb, ub, integrality = model.to_matrices()
    rows = [con for con in model.constraints if con.expression.terms]
    assert A.shape == (len(rows), len(model.variables))
    assert len(A.indptr) == len(rows) + 1 and A.indptr[0] == 0
    assert A.indptr[-1] == len(A.indices) == len(A.data)
    assert not np.any(A.data == 0.0)

    rng = np.random.default_rng(0)
    x = rng.uniform(-10.0, 10.0, size=len(model.variables))
    for var in model.variables:
        var.value = float(x[var.index])
    for r, con in enumerate(rows):
        start, end = A.indptr[r], A.indptr[r + 1]
        cols = A.indices[start:end]
        assert np.all(np.diff(cols) > 0), f"row {r} columns not sorted"
        own = con.expression.evaluate() - con.expression.constant
        assert float(A.data[start:end] @ x[cols]) == pytest.approx(own, abs=1e-9)
        assert (lower[r], upper[r]) == row_bounds(con)


def test_to_matrices_imports_no_scipy():
    """The lowering runs on an interpreter where scipy cannot be imported."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.ilp import Model\n"
        "m = Model('m')\n"
        "x = m.add_integer('x', low=0, up=3)\n"
        "y = m.add_continuous('y', low=0, up=3)\n"
        "m.add_constraint(x + 2 * y <= 4)\n"
        "m.minimize(x - y)\n"
        "c, A, *_ = m.to_matrices()\n"
        "assert A.indices.tolist() == [0, 1] and A.data.tolist() == [1.0, 2.0]\n"
        "assert not any(name.startswith('scipy') and mod is not None\n"
        "               for name, mod in sys.modules.items())\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


@needs_scipy
@pytest.mark.parametrize("assay, objective", [("IVD", 28060.0), ("PCR", 33010.0)])
def test_highs_optimum_on_the_sparse_lowering(assay, objective):
    # The backend is called directly: solve_model would close IVD at its
    # certified lower bound without running HiGHS.
    result = get_backend("highs").solve(scheduling_model(assay), SolverOptions(time_limit_s=60))
    assert result.status is SolverStatus.OPTIMAL
    assert result.objective == pytest.approx(objective)
    # HiGHS's MIP dual bound, within its default relative gap.
    assert objective * (1 - 1e-4) - 1e-6 <= result.bound <= objective + 1e-6


@needs_scipy
def test_solve_records_carry_the_objective_bound():
    """HiGHS reports its dual bound, branch and bound none, a close its own."""
    highs = paper_scheduler("PCR", "highs").schedule(assay_by_name("PCR")).solve
    assert highs.backend == "highs"
    assert highs.bound == pytest.approx(33010.0, rel=1e-4)
    bb = BranchAndBoundBackend().solve(scheduling_model("PCR"), SolverOptions(time_limit_s=0.1))
    assert bb.bound is None and bb.record().bound is None
    closed = paper_scheduler("IVD", "highs").schedule(assay_by_name("IVD")).solve
    assert (closed.backend, closed.bound, closed.objective) == ("bound", 28060.0, 28060.0)


def test_bound_close_reaches_the_batch_payload():
    """A stage closed at the certified bound reports it next to ``backend``."""
    from repro.batch.engine import BatchSynthesisEngine
    from repro.batch.jobs import BatchJob

    report = BatchSynthesisEngine(max_workers=1).run(
        [BatchJob("ivd", assay_by_name("IVD"), FlowConfig.paper_defaults_for("IVD"))]
    )
    assert report.num_failed == 0
    by_stage = {row["stage"]: row for row in report.outcomes[0].payload()["stages"]}
    assert by_stage["schedule"]["backend"] == "bound"
    assert by_stage["schedule"]["bound"] == 28060.0
    assert by_stage["schedule"]["warm_start_used"] is True
    assert by_stage["archsyn"]["bound"] is None
    assert report.stage_summary()["schedule"]["backends"] == {"bound": 1}


# ------------------------------------------------------------------ registry

def test_registry_resolves_builtins():
    assert backend_names() == ("branch-and-bound", "highs")
    for name in backend_names():
        assert get_backend(name).name == name


def test_default_backend_is_highs_exactly_when_scipy_imports():
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        expected = "branch-and-bound"
    else:
        expected = "highs"
    assert DEFAULT_BACKEND == expected
    config = FlowConfig()
    assert config.scheduler_backend == config.archsyn_backend == expected


def test_default_backend_without_scipy_is_branch_and_bound():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.ilp.backends import DEFAULT_BACKEND\n"
        "from repro.synthesis.config import FlowConfig\n"
        "assert DEFAULT_BACKEND == 'branch-and-bound', DEFAULT_BACKEND\n"
        "config = FlowConfig()\n"
        "assert config.scheduler_backend == config.archsyn_backend == DEFAULT_BACKEND\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


def test_a_config_naming_the_deleted_portfolio_fails_at_construction():
    with pytest.raises(ValueError, match="unknown solver backend 'portfolio'"):
        FlowConfig(scheduler_backend="portfolio")


def test_unknown_backend_fails_loudly():
    with pytest.raises(ValueError, match=r"known backends: \['branch-and-bound', 'highs'\]"):
        get_backend("gurobi")


def test_a_backend_set_into_the_map_serves_solves(monkeypatch):
    class Custom(BranchAndBoundBackend):
        name = "custom-bnb"

    monkeypatch.setitem(BACKENDS, Custom.name, Custom())
    assert "custom-bnb" in backend_names()
    result = knapsack().solve(SolverOptions(backend="custom-bnb"))
    assert result.status.is_optimal()
    assert result.backend_name == "custom-bnb"


# ------------------------------------------------------------------- limits

class StubTimeoutBackend(SolverBackend):
    """Always hits its 'cap' with no usable incumbent (deterministically)."""

    name = "stub-timeout"
    #: The proven bound the stub reports with its limit.
    bound = None

    def solve(self, model, options=None, *, warm_verified=False):
        for var in model.variables:
            var.value = None
        return SolveResult(
            status=SolverStatus.TIME_LIMIT,
            wall_time_s=0.5,
            message="stub: limit reached with no incumbent",
            backend_name=self.name,
            bound=self.bound,
        )


class StubUnavailableBackend(SolverBackend):
    """Pretends its dependency is missing."""

    name = "stub-unavailable"

    def is_available(self):
        return False

    def solve(self, model, options=None, *, warm_verified=False):
        raise BackendUnavailableError("stub")


@pytest.fixture()
def stub_backends(monkeypatch):
    """Add the deterministic stubs to the backend map for one test."""
    for stub in (StubTimeoutBackend(), StubUnavailableBackend()):
        monkeypatch.setitem(BACKENDS, stub.name, stub)


def bounded_cover(lower_bound=None) -> Model:
    """:func:`covering_pair` (optimum 5 at a=b=1) with a certified floor."""
    model = covering_pair()
    model.lower_bound = lower_bound
    return model


COVER_ALL = {"a": 1.0, "b": 1.0, "c": 1.0}


class TestWarmStartAtLimit:
    def test_limit_returns_the_verified_warm_start(self, stub_backends):
        model = bounded_cover(lower_bound=4.0)
        result = solve_model(model, SolverOptions(backend="stub-timeout",
                                                  warm_start=WarmStart(COVER_ALL)))
        assert result.status is SolverStatus.FEASIBLE
        assert result.backend_name == "stub-timeout"
        assert result.warm_start_used is True
        assert result.objective == 9.0
        assert result.bound == 4.0
        assert result.mip_gap == pytest.approx((9.0 - 4.0) / 9.0)
        assert result.wall_time_s == 0.5
        assert "stub-timeout" not in result.message and "stub:" in result.message
        assert {var.name: var.value for var in model.variables} == COVER_ALL
        assert result.record().status is SolverStatus.FEASIBLE

    def test_the_stronger_of_the_two_bounds_wins(self, stub_backends, monkeypatch):
        monkeypatch.setattr(StubTimeoutBackend, "bound", 6.0)
        result = solve_model(bounded_cover(lower_bound=4.0),
                             SolverOptions(backend="stub-timeout",
                                           warm_start=WarmStart(COVER_ALL)))
        assert result.bound == 6.0
        assert result.mip_gap == pytest.approx((9.0 - 6.0) / 9.0)

    def test_no_bound_means_no_gap(self, stub_backends):
        result = solve_model(bounded_cover(), SolverOptions(backend="stub-timeout",
                                                            warm_start=WarmStart(COVER_ALL)))
        assert result.status is SolverStatus.FEASIBLE
        assert result.bound is None and result.mip_gap is None

    def test_an_unverifiable_warm_start_keeps_the_limit(self, stub_backends):
        model = bounded_cover(lower_bound=4.0)
        infeasible = {"a": 0.0, "b": 0.0, "c": 1.0}
        result = solve_model(model, SolverOptions(backend="stub-timeout",
                                                  warm_start=WarmStart(infeasible)))
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.warm_start_used is False
        assert all(var.value is None for var in model.variables)

    def test_no_warm_start_keeps_the_limit(self, stub_backends):
        result = solve_model(bounded_cover(), SolverOptions(backend="stub-timeout"))
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.backend_name == "stub-timeout"

    def test_branch_and_bound_returning_the_warm_start_carries_the_bound(self):
        # With no node to explore, branch and bound returns the warm start
        # as its own FEASIBLE incumbent; the model's floor still bounds it.
        model = bounded_cover(lower_bound=4.0)
        result = solve_model(model, SolverOptions(backend="branch-and-bound", node_limit=0,
                                                  warm_start=WarmStart(COVER_ALL)))
        assert result.status is SolverStatus.FEASIBLE
        assert result.backend_name == "branch-and-bound"
        assert result.objective == 9.0
        assert result.bound == 4.0
        assert result.mip_gap == pytest.approx((9.0 - 4.0) / 9.0)
        assert result.record().bound == 4.0

    def test_a_completed_search_keeps_its_own_optimum(self):
        model = bounded_cover(lower_bound=4.0)
        result = solve_model(model, SolverOptions(backend="branch-and-bound",
                                                  warm_start=WarmStart(COVER_ALL)))
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == 5.0
        assert violated_rows(model) == []

    def test_an_unavailable_backend_raises(self, stub_backends):
        with pytest.raises(BackendUnavailableError):
            solve_model(knapsack(), SolverOptions(backend="stub-unavailable"))


# ------------------------------------------------------------------ dispatch

def test_solve_model_runs_the_default_backend():
    result = solve_model(knapsack())
    assert result.status.is_optimal()
    assert result.backend_name == DEFAULT_BACKEND


def test_options_backend_is_respected():
    result = solve_model(knapsack(), SolverOptions(backend="branch-and-bound"))
    assert result.backend_name == "branch-and-bound"


@needs_scipy
def test_explicit_highs_backend_unchanged():
    result = knapsack().solve(SolverOptions(backend="highs"))
    assert result.backend_name == "highs"
    assert result.warm_start_used is False


# ------------------------------------------------------- flow-level threading

def small_chain_graph():
    from repro.graph.sequencing_graph import SequencingGraph

    graph = SequencingGraph(name="tiny-chain")
    graph.add_input("i1")
    previous = "i1"
    for idx in range(1, 4):
        op_id = f"o{idx}"
        graph.add_mix(op_id, 30)
        graph.add_edge(previous, op_id)
        previous = op_id
    return graph


def loose_bound_graph():
    """Four operations whose list-heuristic warm start (objective 24090)
    lies above both the certified lower bound (24000) and the optimum
    (24010), so the solve must run a backend."""
    return random_assay(RandomAssayConfig(num_operations=4, seed=0))


class TestFlowThreading:
    def test_forced_timeout_completes_on_the_warm_start(self, stub_backends,
                                                        loose_bound_guard):
        """Where a limit without an incumbent used to abort the flow with
        SolverLimitError, the list schedule's warm start completes it, and
        the result records the backend that ran."""
        from repro.synthesis.config import FlowConfig, SchedulerEngine
        from repro.synthesis.pipeline import SynthesisPipeline
        from repro.synthesis.report import result_report

        config = FlowConfig(
            scheduler=SchedulerEngine.ILP,
            scheduler_backend="stub-timeout",
            ilp_time_limit_s=20.0,
        )
        result = SynthesisPipeline().run(loose_bound_graph(), config)
        loose_bound_guard()
        assert result.schedule.makespan > 0
        assert result.scheduler_engine == "ilp"
        solve = result.schedule.solve
        assert (solve.backend, solve.status) == ("stub-timeout", SolverStatus.FEASIBLE)
        assert solve.warm_start_used is True
        assert solve.objective == 24090.0
        # 90 / 24090 against the certified lower bound 24000.
        assert "solver backends: schedule=stub-timeout (feasible, gap 0.37%)" in (
            result_report(result)
        )

    def test_backend_identity_reaches_batch_payload(self, stub_backends, loose_bound_guard):
        """JobOutcome.payload — the one JSON shape of --json and the
        service's result endpoint — carries each stage's backend, status,
        objective, bound and gap."""
        from repro.batch.engine import BatchSynthesisEngine
        from repro.batch.jobs import BatchJob
        from repro.synthesis.config import FlowConfig, SchedulerEngine

        config = FlowConfig(
            scheduler=SchedulerEngine.ILP,
            scheduler_backend="stub-timeout",
            ilp_time_limit_s=20.0,
        )
        report = BatchSynthesisEngine(max_workers=1).run(
            [BatchJob("tiny", loose_bound_graph(), config)]
        )
        loose_bound_guard()
        assert report.num_failed == 0
        payload = report.outcomes[0].payload()
        by_stage = {row["stage"]: row for row in payload["stages"]}
        schedule = by_stage["schedule"]
        assert schedule["backend"] == "stub-timeout"
        assert schedule["status"] == "feasible"
        assert schedule["objective"] == 24090.0
        assert schedule["bound"] == 24000.0
        assert schedule["mip_gap"] == pytest.approx(90.0 / 24090.0)
        assert schedule["warm_start_used"] is True
        assert "fallback_used" not in schedule
        # The heuristic archsyn engine never invokes a MILP backend.
        archsyn = by_stage["archsyn"]
        assert (archsyn["backend"], archsyn["status"], archsyn["mip_gap"]) == (None, None, None)
        summary = report.stage_summary()
        assert summary["schedule"]["backends"] == {"stub-timeout": 1}
        assert summary["schedule"]["warm_starts"] == 1
        assert "fallbacks" not in summary["schedule"]

    @needs_scipy
    def test_highs_at_a_tight_limit_returns_a_schedule(self):
        """PCR on HiGHS with a 50 ms limit: no incumbent in time used to
        raise SolverLimitError; now the list schedule comes back."""
        from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig

        scheduler = paper_scheduler("PCR", "highs", time_limit_s=0.05)
        graph = assay_by_name("PCR")
        schedule = scheduler.schedule(graph)
        assert schedule.solve.backend == "highs"
        assert schedule.solve.status in (SolverStatus.FEASIBLE, SolverStatus.OPTIMAL)
        listed = ListScheduler(
            scheduler.library, ListSchedulerConfig(transport_time=10)
        ).schedule(graph)
        assert schedule.makespan <= listed.makespan

    def test_unknown_backend_rejected_at_config_time(self):
        from repro.synthesis.config import FlowConfig

        with pytest.raises(ValueError, match="unknown solver backend"):
            FlowConfig(scheduler_backend="gurobi")
        with pytest.raises(ValueError, match="unknown solver backend"):
            FlowConfig(archsyn_backend="cplex")

    def test_backend_fields_round_trip_through_manifests(self):
        from repro.synthesis.config import FlowConfig

        config = FlowConfig(
            scheduler_backend="branch-and-bound", archsyn_backend="highs", mip_rel_gap=0.05
        )
        rebuilt = FlowConfig.from_dict(config.to_dict())
        assert rebuilt.scheduler_backend == "branch-and-bound"
        assert rebuilt.archsyn_backend == "highs"
        assert rebuilt.mip_rel_gap == 0.05

    def test_shared_solver_options_helper(self):
        """The satellite bugfix: one construction point, mip_rel_gap kept."""
        from repro.synthesis.config import FlowConfig, solver_options_for

        config = FlowConfig(
            mip_rel_gap=0.1,
            ilp_time_limit_s=11.0,
            archsyn_time_limit_s=22.0,
            scheduler_backend="highs",
            archsyn_backend="branch-and-bound",
        )
        scheduler = solver_options_for(config, "scheduler")
        assert (scheduler.time_limit_s, scheduler.mip_rel_gap, scheduler.backend) == (
            11.0, 0.1, "highs",
        )
        archsyn = solver_options_for(config, "archsyn")
        assert (archsyn.time_limit_s, archsyn.mip_rel_gap, archsyn.backend) == (
            22.0, 0.1, "branch-and-bound",
        )
        with pytest.raises(ValueError, match="unknown solver stage"):
            solver_options_for(config, "physical")

    def test_archsyn_engine_receives_the_shared_options(self):
        """Regression for the dropped-mip_rel_gap bug: the synthesizer's
        options now come from the shared helper, gap included."""
        from repro.synthesis.config import FlowConfig, SynthesisEngine
        from repro.synthesis.flow import _build_synthesizer

        config = FlowConfig(
            synthesis=SynthesisEngine.ILP, mip_rel_gap=0.25, archsyn_time_limit_s=33.0
        )
        synthesizer, name = _build_synthesizer(config)
        assert name == "ilp"
        options = synthesizer.config.solver
        assert options.mip_rel_gap == 0.25
        assert options.time_limit_s == 33.0
        assert options.backend == DEFAULT_BACKEND
