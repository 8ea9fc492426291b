"""Tests of the MILP model container and the HiGHS backend."""

import pytest

from repro.ilp import Model, ObjectiveSense, SolverOptions, SolverStatus
from repro.ilp.expression import lin_sum

from ilp_reference import violated_rows


class TestModelConstruction:
    def test_duplicate_variable_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ValueError):
            model.add_var("x")

    def test_counts(self):
        model = Model("m")
        model.add_binary("b")
        model.add_integer("i", up=10)
        model.add_continuous("c", up=1.5)
        assert model.num_variables == 3
        assert model.num_binaries == 1
        assert model.num_integers == 2
        assert "3 variables" in model.summary()

    def test_add_constraint_requires_constraint(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(TypeError):
            model.add_constraint(42)

    def test_trivially_infeasible_constraint_rejected(self):
        from repro.ilp.expression import LinExpr

        model = Model()
        with pytest.raises(ValueError):
            model.add_constraint(LinExpr.constant_expr(5) <= 0)

    def test_get_var(self):
        model = Model()
        x = model.add_var("x")
        assert model.get_var("x") is x
        with pytest.raises(KeyError):
            model.get_var("y")


class TestSolve:
    def test_simple_lp_optimum(self):
        model = Model("lp")
        x = model.add_continuous("x", low=0, up=10)
        y = model.add_continuous("y", low=0, up=10)
        model.add_constraint(x + y >= 4)
        model.minimize(3 * x + 5 * y)
        result = model.solve()
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(12.0)
        assert x.solution == pytest.approx(4.0)

    def test_integer_rounding(self):
        model = Model("ip")
        x = model.add_integer("x", low=0, up=10)
        model.add_constraint(2 * x >= 7)
        model.minimize(x)
        result = model.solve()
        assert result.status.is_optimal()
        assert x.solution == 4

    def test_binary_knapsack(self):
        model = Model("knapsack")
        values = [6, 10, 12]
        weights = [1, 2, 3]
        items = [model.add_binary(f"item{i}") for i in range(3)]
        model.add_constraint(lin_sum(w * item for w, item in zip(weights, items)) <= 4)
        model.maximize(lin_sum(v * item for v, item in zip(values, items)))
        result = model.solve()
        assert result.status.is_optimal()
        chosen = [i for i, item in enumerate(items) if item.as_bool()]
        assert chosen == [0, 2]
        assert result.objective == pytest.approx(18.0)

    def test_infeasible_model(self):
        model = Model("infeasible")
        x = model.add_continuous("x", low=0, up=1)
        model.add_constraint(x >= 2)
        model.minimize(x)
        result = model.solve()
        assert result.status is SolverStatus.INFEASIBLE
        assert not result

    def test_empty_model_is_trivially_optimal(self):
        model = Model("empty")
        result = model.solve()
        assert result.status is SolverStatus.OPTIMAL

    def test_equality_constraint(self):
        model = Model("eq")
        x = model.add_integer("x", low=0, up=100)
        model.add_constraint(x == 42)
        model.minimize(x)
        result = model.solve()
        assert x.solution == 42
        assert result.status.is_optimal()

    def test_result_values_by_name(self):
        model = Model()
        x = model.add_integer("x", low=3, up=3)
        model.minimize(x)
        result = model.solve()
        assert result.value("x") == 3

    def test_check_solution_reports_no_violations(self):
        model = Model()
        x = model.add_integer("x", low=0, up=5)
        model.add_constraint(x >= 2)
        model.minimize(x)
        model.solve()
        assert violated_rows(model) == []

    def test_maximize_sense(self):
        model = Model()
        x = model.add_continuous("x", low=0, up=7)
        model.maximize(x)
        result = model.solve()
        assert x.solution == pytest.approx(7.0)
        assert model.objective.sense is ObjectiveSense.MAXIMIZE

    def test_solver_options_time_limit(self):
        model = Model()
        x = model.add_integer("x", low=0, up=5)
        model.add_constraint(x >= 1)
        model.minimize(x)
        result = model.solve(SolverOptions(time_limit_s=5.0))
        assert result.status.is_feasible()

    def test_wall_time_recorded(self):
        model = Model()
        x = model.add_integer("x", low=0, up=5)
        model.minimize(x)
        result = model.solve()
        assert result.wall_time_s >= 0.0


class FakeMilpResult:
    """Stand-in for ``scipy.optimize.milp``'s result object."""

    def __init__(self, status, x, message="limit reached"):
        self.status = status
        self.x = x
        self.message = message
        self.mip_gap = None


def limit_model():
    model = Model("limit")
    x = model.add_integer("x", low=0, up=5)
    model.add_constraint(x >= 1)
    model.minimize(x)
    return model, x


class TestWeightedObjective:
    def test_weighted_objective_combines_terms(self):
        model = Model()
        x = model.add_continuous("x", low=1, up=1)
        y = model.add_continuous("y", low=2, up=2)
        model.minimize(100.0 * x + 1.0 * y)
        model.solve()
        assert model.objective_value() == pytest.approx(102.0)


class TestLimitStatusMapping:
    """Regression tests for the scipy status-code-1 mapping.

    Code 1 means "iteration or time limit reached"; HiGHS may then return no
    vector at all, or a fractional/non-finite relaxation instead of a true
    incumbent.  None of those may surface as FEASIBLE with garbage values.
    """

    def solve_with_fake(self, monkeypatch, fake):
        # The mapping under test is the HiGHS backend's, so the solve pins
        # backend="highs" whatever the default backend is.
        import repro.ilp.backends.highs as highs_module

        model, x = limit_model()
        monkeypatch.setattr(highs_module, "milp", lambda **kwargs: fake)
        return model.solve(SolverOptions(backend="highs")), x

    def test_limit_without_incumbent_is_not_feasible(self, monkeypatch):
        result, x = self.solve_with_fake(monkeypatch, FakeMilpResult(1, None))
        assert result.status is SolverStatus.TIME_LIMIT
        assert not result.status.is_feasible()
        assert not result
        assert result.objective is None
        assert result.values == {}
        assert x.value is None

    def test_limit_with_fractional_relaxation_is_not_feasible(self, monkeypatch):
        result, x = self.solve_with_fake(monkeypatch, FakeMilpResult(1, [1.5]))
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.values == {}
        assert x.value is None

    def test_limit_with_non_finite_vector_is_not_feasible(self, monkeypatch):
        result, x = self.solve_with_fake(monkeypatch, FakeMilpResult(1, [float("nan")]))
        assert result.status is SolverStatus.TIME_LIMIT
        assert result.values == {}
        assert x.value is None

    def test_limit_with_true_incumbent_is_feasible(self, monkeypatch):
        result, x = self.solve_with_fake(monkeypatch, FakeMilpResult(1, [2.0]))
        assert result.status is SolverStatus.FEASIBLE
        assert result.status.is_feasible()
        assert result.value("x") == 2
        assert x.value == 2

    def test_optimal_without_vector_is_an_error(self, monkeypatch):
        result, _ = self.solve_with_fake(monkeypatch, FakeMilpResult(0, None))
        assert result.status is SolverStatus.ERROR

    def test_a_solve_error_retries_once_without_presolve(self, monkeypatch):
        import repro.ilp.backends.highs as highs_module

        calls = []
        outcomes = [FakeMilpResult(4, None, "Solve error"), FakeMilpResult(2, None, "infeasible")]

        def fake_milp(**kwargs):
            calls.append(dict(kwargs["options"]))
            return outcomes[len(calls) - 1]

        monkeypatch.setattr(highs_module, "milp", fake_milp)
        model, _ = limit_model()
        result = model.solve(SolverOptions(backend="highs", time_limit_s=5.0))
        assert result.status is SolverStatus.INFEASIBLE
        assert [options["presolve"] for options in calls] == [True, False]
        assert 0.0 <= calls[1]["time_limit"] <= 5.0
