"""Tests of the pluggable solver-backend subsystem.

Four contracts are pinned here:

* **Parity** — the HiGHS and branch-and-bound backends agree (status, and
  objective within tolerance) on a matrix of small ``ilp.Model`` fixtures,
  so the dependency-free fallback is a real substitute, not a different
  answer.
* **Registry** — backends resolve by string key, unknown names fail loudly,
  and duplicate registration is rejected.
* **Portfolio** — the fallback triggers deterministically under a forced
  no-incumbent primary, decisive proofs (infeasibility) end the chain, and
  unavailable members are skipped.
* **Flow threading** — a forced primary timeout completes the synthesis
  flow via the fallback backend instead of aborting, and the winning
  backend's identity travels into artifacts, results, and batch payloads.
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
    PortfolioBackend,
    SolverOptions,
    SolverStatus,
    backend_names,
    get_backend,
    lin_sum,
    register_backend,
    solve_model,
    unregister_backend,
)
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name
from repro.ilp.backends.base import SolverBackend
from repro.ilp.solver import SolveResult
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.synthesis.config import FlowConfig, solver_options_for
from repro.synthesis.flow import build_library

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
        assert model.check_solution() == []
    else:
        assert bnb.status is highs.status


@pytest.mark.parametrize("build", PARITY_FIXTURES, ids=lambda f: f.__name__)
def test_branch_and_bound_standalone(build):
    """The fallback backend needs no scipy: every fixture solves (or proves
    infeasibility) on its own."""
    model = build()
    result = model.solve(SolverOptions(backend="branch-and-bound"))
    assert result.status in (
        SolverStatus.OPTIMAL, SolverStatus.FEASIBLE, SolverStatus.INFEASIBLE,
    )
    if result.status.is_feasible():
        assert model.check_solution() == []


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
    assert model.check_solution() == []


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

    def timed(self, model, options=None):
        start = time.perf_counter()
        try:
            return original(self, model, options)
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
            paper_scheduler(assay, "portfolio").schedule(assay_by_name(assay))
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
        assert (lower[r], upper[r]) == con.bounds()


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
    for name in ("highs", "branch-and-bound", "portfolio"):
        assert name in backend_names()
        assert get_backend(name).name == name


def test_unknown_backend_fails_loudly():
    with pytest.raises(ValueError, match="registered backends"):
        get_backend("gurobi")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_backend(BranchAndBoundBackend())
    # replace=True is the explicit escape hatch.
    register_backend(BranchAndBoundBackend(), replace=True)


def test_register_and_unregister_custom_backend():
    class Custom(BranchAndBoundBackend):
        name = "custom-bnb"

    register_backend(Custom())
    try:
        assert "custom-bnb" in backend_names()
        result = knapsack().solve(SolverOptions(backend="custom-bnb"))
        assert result.status.is_optimal()
    finally:
        unregister_backend("custom-bnb")
    assert "custom-bnb" not in backend_names()


# ----------------------------------------------------------------- portfolio

class StubTimeoutBackend(SolverBackend):
    """Always hits its 'cap' with no usable incumbent (deterministically)."""

    name = "stub-timeout"

    def solve(self, model, options=None):
        for var in model.variables:
            var.value = None
        return SolveResult(
            status=SolverStatus.TIME_LIMIT,
            message="stub: limit reached with no incumbent",
            backend_name=self.name,
        )


class StubUnavailableBackend(SolverBackend):
    """Pretends its dependency is missing."""

    name = "stub-unavailable"

    def is_available(self):
        return False

    def solve(self, model, options=None):  # pragma: no cover - never reached
        raise BackendUnavailableError("stub")


@pytest.fixture()
def stub_backends():
    """Register the deterministic stubs (and clean them up afterwards)."""
    register_backend(StubTimeoutBackend())
    register_backend(StubUnavailableBackend())
    yield
    unregister_backend("stub-timeout")
    unregister_backend("stub-unavailable")


class TestPortfolio:
    @needs_scipy
    def test_primary_win_records_no_fallback(self):
        result = knapsack().solve(SolverOptions(backend="portfolio"))
        assert result.status.is_optimal()
        assert result.backend_name == "highs"
        assert result.fallback_used is False

    def test_forced_no_incumbent_primary_falls_back(self, stub_backends):
        portfolio = PortfolioBackend(chain=("stub-timeout", "branch-and-bound"))
        model = knapsack()
        result = portfolio.solve(model, SolverOptions())
        assert result.status.is_optimal()
        assert result.backend_name == "branch-and-bound"
        assert result.fallback_used is True
        assert "stub-timeout" in result.message  # the attempt is recorded
        assert model.check_solution() == []

    def test_infeasibility_proof_is_decisive(self, stub_backends):
        """An INFEASIBLE primary ends the chain — no fallback can change a
        mathematical proof."""
        portfolio = PortfolioBackend(chain=("branch-and-bound", "stub-timeout"))
        result = portfolio.solve(infeasible_box(), SolverOptions())
        assert result.status is SolverStatus.INFEASIBLE
        assert result.backend_name == "branch-and-bound"
        assert result.fallback_used is False

    def test_unavailable_primary_is_skipped(self, stub_backends):
        portfolio = PortfolioBackend(chain=("stub-unavailable", "branch-and-bound"))
        result = portfolio.solve(knapsack(), SolverOptions())
        assert result.status.is_optimal()
        assert result.backend_name == "branch-and-bound"
        assert result.fallback_used is True

    def test_all_members_unavailable_raises(self, stub_backends):
        portfolio = PortfolioBackend(chain=("stub-unavailable",))
        with pytest.raises(BackendUnavailableError):
            portfolio.solve(knapsack(), SolverOptions())

    def test_no_decisive_outcome_returns_last_attempt(self, stub_backends):
        portfolio = PortfolioBackend(chain=("stub-timeout",))
        result = portfolio.solve(knapsack(), SolverOptions())
        assert result.status is SolverStatus.TIME_LIMIT
        assert not result.status.is_feasible()
        # A lone primary that failed is not a fallback result.
        assert result.fallback_used is False

    def test_trailing_unavailable_member_does_not_relabel_the_primary(self, stub_backends):
        """Regression: a skipped member *after* the returned attempt must
        not mark the primary's own result as a fallback (or annotate it
        with its own failure)."""
        portfolio = PortfolioBackend(chain=("stub-timeout", "stub-unavailable"))
        result = portfolio.solve(knapsack(), SolverOptions())
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.backend_name == "stub-timeout"
        assert result.fallback_used is False
        # The annotation lists the other attempts, not the result's own.
        assert "stub-unavailable: unavailable" in result.message
        assert "stub-timeout:" not in result.message


# ------------------------------------------------------------------ dispatch

def test_solve_model_default_is_the_portfolio():
    result = solve_model(knapsack())
    # Whichever member won, the result is decisive and stamped.
    assert result.status.is_optimal()
    expected = "highs" if SCIPY_AVAILABLE else "branch-and-bound"
    assert result.backend_name == expected


def test_options_backend_is_respected():
    result = solve_model(knapsack(), SolverOptions(backend="branch-and-bound"))
    assert result.backend_name == "branch-and-bound"


@needs_scipy
def test_explicit_highs_backend_unchanged():
    result = knapsack().solve(SolverOptions(backend="highs"))
    assert result.backend_name == "highs"
    assert result.fallback_used is False


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


@pytest.fixture()
def forced_fallback_portfolio(stub_backends):
    """A registered portfolio whose primary deterministically times out."""
    register_backend(
        PortfolioBackend(chain=("stub-timeout", "branch-and-bound"), name="test-portfolio")
    )
    yield "test-portfolio"
    unregister_backend("test-portfolio")


class TestFlowThreading:
    def test_forced_primary_timeout_completes_via_fallback(self, forced_fallback_portfolio,
                                                           loose_bound_guard):
        """The acceptance scenario: where the old code aborted with
        SolverLimitError, the portfolio completes the flow on the fallback
        backend and records exactly that."""
        from repro.synthesis.config import FlowConfig, SchedulerEngine
        from repro.synthesis.pipeline import SynthesisPipeline

        config = FlowConfig(
            scheduler=SchedulerEngine.ILP,
            scheduler_backend=forced_fallback_portfolio,
            ilp_time_limit_s=20.0,
        )
        result = SynthesisPipeline().run(loose_bound_graph(), config)
        loose_bound_guard()
        assert result.schedule.makespan > 0
        assert result.scheduler_engine == "ilp"
        assert result.schedule.solve.backend == "branch-and-bound"
        assert result.schedule.solve.fallback_used is True

    def test_fallback_matches_default_backend_result(self, forced_fallback_portfolio):
        """The fallback's schedule is as good as the primary's: the small
        chain solves to the same makespan either way."""
        from repro.synthesis.config import FlowConfig, SchedulerEngine
        from repro.synthesis.pipeline import SynthesisPipeline

        def run(backend):
            config = FlowConfig(
                scheduler=SchedulerEngine.ILP,
                scheduler_backend=backend,
                ilp_time_limit_s=20.0,
            )
            return SynthesisPipeline().run(small_chain_graph(), config)

        forced = run(forced_fallback_portfolio)
        default = run("portfolio")
        assert forced.schedule.makespan == default.schedule.makespan

    def test_backend_identity_reaches_batch_payload(self, forced_fallback_portfolio,
                                                    loose_bound_guard):
        """JobOutcome.payload — the one JSON shape of --json and the
        service's result endpoint — carries backend and fallback per stage."""
        from repro.batch.engine import BatchSynthesisEngine
        from repro.batch.jobs import BatchJob
        from repro.synthesis.config import FlowConfig, SchedulerEngine

        config = FlowConfig(
            scheduler=SchedulerEngine.ILP,
            scheduler_backend=forced_fallback_portfolio,
            ilp_time_limit_s=20.0,
        )
        report = BatchSynthesisEngine(max_workers=1).run(
            [BatchJob("tiny", loose_bound_graph(), config)]
        )
        loose_bound_guard()
        assert report.num_failed == 0
        payload = report.outcomes[0].payload()
        by_stage = {row["stage"]: row for row in payload["stages"]}
        assert by_stage["schedule"]["backend"] == "branch-and-bound"
        assert by_stage["schedule"]["bound"] is None
        assert by_stage["schedule"]["fallback_used"] is True
        # The heuristic archsyn engine never invokes a MILP backend.
        assert by_stage["archsyn"]["backend"] is None
        assert by_stage["archsyn"]["fallback_used"] is False
        summary = report.stage_summary()
        assert summary["schedule"]["backends"] == {"branch-and-bound": 1}
        assert summary["schedule"]["fallbacks"] == 1

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
        options = synthesizer.config.solver_options()
        assert options.mip_rel_gap == 0.25
        assert options.time_limit_s == 33.0
        assert options.backend == "portfolio"
