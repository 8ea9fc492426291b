"""Differential tests of the branch-and-bound kernels and solver.

The CSR kernels of :mod:`repro.ilp.backends.branch_and_bound` are pinned
against the per-term reference loops below, which import the module's
tolerances, and the whole solver against independent oracles.  Four levels
are covered:

* **kernel level** — ``_propagate``, ``_box_bound`` and ``_verified``
  reach identical verdicts (and, for propagation, the identical bound
  fixpoint) as ``_propagate_scalar``, ``_box_bound_scalar`` and
  ``_verified_scalar`` on hypothesis-generated all-integer models.
  All-integer boxes make the fixpoint exact, so the comparison is
  equality-strength, not merely "close";
* **soundness** — propagation never cuts off a feasible integer point of
  the box it tightens, with or without an objective cut;
* **solve level** — full ``solve()`` runs agree on status and optimum with
  brute-force enumeration of the (at most 7**4 point) box, and with HiGHS
  when scipy is installed;
* **regression level** — a deterministic chain model whose propagation
  only converges when mid-pass activity updates are applied (the stale
  ``min_fin``/``max_fin`` bug both kernels had to fix), asserted against
  the hand-computed fixpoint.
"""

from __future__ import annotations

import inspect
import itertools
import math
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ilp import (
    ConstraintSense,
    HighsBackend,
    Model,
    SolverOptions,
    SolverStatus,
    lin_sum,
)
from repro.ilp.backends import branch_and_bound as bb
from repro.ilp.backends.branch_and_bound import (
    _FEAS_TOL,
    _INF,
    _INT_TOL,
    _MAX_PASSES,
    _TIGHTEN_TOL,
    _RowSystem,
)

needs_scipy = pytest.mark.skipif(
    not HighsBackend().is_available(), reason="scipy not installed"
)


# ------------------------------------------------------------------ helpers

def _matrices(model: Model):
    """The solver-facing arrays plus a fresh ``_RowSystem``."""
    c_arr, A, lower, upper, lb, ub, integrality = model.to_matrices()
    c = np.asarray(c_arr, dtype=float)
    rows = bb._RowSystem(A, lower, upper, c)
    lo = np.asarray(lb, dtype=float).copy()
    hi = np.asarray(ub, dtype=float).copy()
    is_int = np.asarray(integrality, dtype=bool)
    return rows, c, lo, hi, is_int


def _solve(model: Model, backend: str = "branch-and-bound"):
    return model.solve(SolverOptions(backend=backend, time_limit_s=10.0))


def _feasible_points(model: Model):
    """Every integer point of the model's box that satisfies every row.

    Evaluated straight from the constraint expressions, independently of
    the matrix lowering the solver uses.
    """
    ranges = [range(int(v.low), int(v.up) + 1) for v in model.variables]
    points = []
    for point in itertools.product(*ranges):
        value = dict(zip(model.variables, point))
        if all(_holds(con, value) for con in model.constraints):
            points.append(np.array(point, dtype=float))
    return points


def _holds(con, value) -> bool:
    """``expression <sense> 0`` at the integer point ``value``."""
    lhs = con.expression.constant + sum(a * value[v] for v, a in con.expression.terms.items())
    if con.sense is ConstraintSense.LE:
        return lhs <= 0
    if con.sense is ConstraintSense.GE:
        return lhs >= 0
    return lhs == 0


# -------------------------------------------------------- scalar reference
#
# Per-term loops over the same CSR rows: the plain statement of what the
# module's kernels compute.  They share its tolerances, so a bound move one
# side books as a tightening the other books too.

def _terms(sys: _RowSystem, r: int) -> List[Tuple[int, float]]:
    """Row ``r`` as ``[(var_index, coefficient), ...]``."""
    start, end = sys.indptr[r], sys.indptr[r + 1]
    return list(zip(sys.indices[start:end].tolist(), sys.data[start:end].tolist()))


def _propagate_scalar(sys: _RowSystem, lo, hi, is_int) -> bool:
    """Reference propagation, Gauss-Seidel over the rows.

    Row activities are updated incrementally as bounds tighten mid-pass
    (a ``hi`` move feeds the max-activity sums, a ``lo`` move the min
    sums), so the residual bounds later terms see are never stale — both
    kernels therefore iterate to the same propagation fixpoint, this one
    just visits it row by row.
    """
    rows = [(_terms(sys, r), float(sys.lower[r]), float(sys.upper[r])) for r in range(sys.m + 1)]
    for _ in range(_MAX_PASSES):
        changed = False
        for terms, row_lo, row_hi in rows:
            min_fin = max_fin = 0.0
            min_inf = max_inf = 0
            for j, a in terms:
                cmin = a * lo[j] if a > 0 else a * hi[j]
                cmax = a * hi[j] if a > 0 else a * lo[j]
                if cmin == -_INF:
                    min_inf += 1
                else:
                    min_fin += cmin
                if cmax == _INF:
                    max_inf += 1
                else:
                    max_fin += cmax
            if min_inf == 0 and min_fin > row_hi + _FEAS_TOL:
                return False
            if max_inf == 0 and max_fin < row_lo - _FEAS_TOL:
                return False
            for j, a in terms:
                # a * x_j <= row_hi - rest_min (min side reads, max side
                # absorbs the move: for a > 0 the capped hi only changes
                # this term's cmax, and symmetrically for a < 0).
                if row_hi < _INF:
                    cmin = a * lo[j] if a > 0 else a * hi[j]
                    if cmin == -_INF:
                        rest_min = min_fin if min_inf == 1 else -_INF
                    else:
                        rest_min = (min_fin - cmin) if min_inf == 0 else -_INF
                    if rest_min > -_INF:
                        limit = (row_hi - rest_min) / a
                        if a > 0:
                            if is_int[j]:
                                limit = math.floor(limit + _INT_TOL)
                            if limit < hi[j] - _TIGHTEN_TOL:
                                old = hi[j]
                                hi[j] = limit
                                changed = True
                                if old == _INF:
                                    max_inf -= 1
                                    max_fin += a * limit
                                else:
                                    max_fin += a * (limit - old)
                        else:
                            if is_int[j]:
                                limit = math.ceil(limit - _INT_TOL)
                            if limit > lo[j] + _TIGHTEN_TOL:
                                old = lo[j]
                                lo[j] = limit
                                changed = True
                                if old == -_INF:
                                    max_inf -= 1
                                    max_fin += a * limit
                                else:
                                    max_fin += a * (limit - old)
                # a * x_j >= row_lo - rest_max (max side reads — fresh,
                # including any move just made above — min side absorbs).
                if row_lo > -_INF:
                    cmax = a * hi[j] if a > 0 else a * lo[j]
                    if cmax == _INF:
                        rest_max = max_fin if max_inf == 1 else _INF
                    else:
                        rest_max = (max_fin - cmax) if max_inf == 0 else _INF
                    if rest_max < _INF:
                        limit = (row_lo - rest_max) / a
                        if a > 0:
                            if is_int[j]:
                                limit = math.ceil(limit - _INT_TOL)
                            if limit > lo[j] + _TIGHTEN_TOL:
                                old = lo[j]
                                lo[j] = limit
                                changed = True
                                if old == -_INF:
                                    min_inf -= 1
                                    min_fin += a * limit
                                else:
                                    min_fin += a * (limit - old)
                        else:
                            if is_int[j]:
                                limit = math.floor(limit + _INT_TOL)
                            if limit < hi[j] - _TIGHTEN_TOL:
                                old = hi[j]
                                hi[j] = limit
                                changed = True
                                if old == _INF:
                                    min_inf -= 1
                                    min_fin += a * limit
                                else:
                                    min_fin += a * (limit - old)
                if lo[j] > hi[j] + _FEAS_TOL:
                    return False
        if not changed:
            break
    return True


def _box_bound_scalar(sys: _RowSystem, lo, hi) -> float:
    """Reference box bound over the cut row's terms (no term can be +inf)."""
    return float(sum(cj * (lo[j] if cj > 0 else hi[j]) for j, cj in _terms(sys, sys.m)))


def _verified_scalar(sys: _RowSystem, x) -> bool:
    """Reference verification, one row at a time."""
    for r in range(sys.m):
        activity = sum(a * x[j] for j, a in _terms(sys, r))
        if activity > sys.upper[r] + _FEAS_TOL or activity < sys.lower[r] - _FEAS_TOL:
            return False
    return True


# ----------------------------------------------------------------- strategy
#
# Small all-integer models: every variable bound, every coefficient, and
# every right-hand side is a small integer, so propagation lands on exact
# integral bounds and the optimum (when one exists) is exactly
# representable — the kernels and the reference must agree to the bit, modulo
# float tolerance.

@st.composite
def integer_models(draw) -> Model:
    n = draw(st.integers(min_value=1, max_value=4))
    model = Model("hyp")
    variables = []
    for j in range(n):
        low = draw(st.integers(min_value=-4, max_value=3))
        up = low + draw(st.integers(min_value=0, max_value=6))
        variables.append(model.add_integer(f"x{j}", low=low, up=up))

    coeff = st.integers(min_value=-3, max_value=3)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        coeffs = [draw(coeff) for _ in range(n)]
        if not any(coeffs):
            continue
        expr = lin_sum(a * v for a, v in zip(coeffs, variables) if a)
        rhs = draw(st.integers(min_value=-10, max_value=10))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        if sense == "<=":
            model.add_constraint(expr <= rhs)
        elif sense == ">=":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)

    objective = [draw(coeff) for _ in range(n)]
    expr = lin_sum(a * v for a, v in zip(objective, variables) if a)
    if any(objective):
        model.minimize(expr)
    else:
        model.minimize(0 * variables[0])
    return model


def _presolve_error_model() -> Model:
    """Infeasible, yet HiGHS's presolve reports "Solve error" on it.

    Found by ``integer_models``; scipy 1.17.1's HiGHS needs a re-solve
    without presolve to prove the infeasibility branch and bound reports.
    """
    model = Model("presolve-error")
    x0 = model.add_integer("x0", low=0, up=2)
    x1 = model.add_integer("x1", low=0, up=0)
    x2 = model.add_integer("x2", low=1, up=1)
    model.add_integer("x3", low=0, up=0)
    model.add_constraint(-2 * x0 + 2 * x1 + x2 == 0)
    model.minimize(0 * x0)
    return model


# --------------------------------------------------------- kernel equality

class TestKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(integer_models(), st.one_of(st.none(), st.integers(min_value=-40, max_value=40)))
    def test_propagation_reaches_the_same_fixpoint(self, model, cut):
        """Jacobi (CSR) and Gauss-Seidel (scalar) propagation agree.

        Interval narrowing is monotone, so chaotic iteration converges to
        one fixpoint regardless of visit order — the verdicts must match,
        and on feasible boxes the tightened bounds must be identical.
        """
        rows, _c, lo, hi, is_int = _matrices(model)
        if cut is not None:
            rows.set_cut(float(cut))
        lo_v, hi_v = lo.copy(), hi.copy()
        lo_s, hi_s = lo.copy(), hi.copy()

        ok_vec = bb._propagate(rows, lo_v, hi_v, is_int)
        ok_scalar = _propagate_scalar(rows, lo_s, hi_s, is_int)

        assert ok_vec == ok_scalar
        if ok_vec:
            np.testing.assert_allclose(lo_v, lo_s, atol=1e-6)
            np.testing.assert_allclose(hi_v, hi_s, atol=1e-6)

    @settings(max_examples=120, deadline=None)
    @given(integer_models())
    def test_box_bound_matches(self, model):
        rows, c, lo, hi, _is_int = _matrices(model)
        expected = sum(cj * (lo[j] if cj > 0 else hi[j]) for j, cj in enumerate(c) if cj)
        assert bb._box_bound(rows, lo, hi) == pytest.approx(expected, abs=1e-9)
        assert _box_bound_scalar(rows, lo, hi) == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(integer_models(), st.randoms(use_true_random=False))
    def test_verified_matches_on_random_points(self, model, rng):
        rows, _c, lo, hi, _is_int = _matrices(model)
        x = np.array([float(rng.randint(int(l), int(h))) for l, h in zip(lo, hi)])
        assert bb._verified(rows, x) == _verified_scalar(rows, x)


# ---------------------------------------------------------------- soundness

class TestPropagationSoundness:
    @settings(max_examples=120, deadline=None)
    @given(integer_models(), st.data())
    def test_propagation_keeps_every_feasible_point(self, model, data):
        """No feasible integer point of a box is cut off by tightening it.

        The box is a random sub-box of the model's bounds, and an optional
        objective cut ``c . x <= cut`` joins the rows; a point is feasible
        when it lies in the sub-box, satisfies every row and the cut.
        """
        rows, c, lo, hi, is_int = _matrices(model)
        for j in range(len(lo)):
            a = data.draw(st.integers(min_value=int(lo[j]), max_value=int(hi[j])))
            b = data.draw(st.integers(min_value=int(lo[j]), max_value=int(hi[j])))
            lo[j], hi[j] = min(a, b), max(a, b)
        cut = data.draw(st.one_of(st.none(), st.integers(min_value=-40, max_value=40)))
        if cut is not None:
            rows.set_cut(float(cut))
        survivors = [
            x for x in _feasible_points(model)
            if np.all(x >= lo) and np.all(x <= hi) and (cut is None or c @ x <= cut)
        ]

        lo_p, hi_p = lo.copy(), hi.copy()
        if not bb._propagate(rows, lo_p, hi_p, is_int):
            assert survivors == []
            return
        for x in survivors:
            assert np.all(x >= lo_p - 1e-9) and np.all(x <= hi_p + 1e-9), (x, lo_p, hi_p)


# ------------------------------------------------------------- solve oracles

class TestSolveOracles:
    @settings(max_examples=60, deadline=None)
    @given(integer_models())
    def test_solve_matches_brute_force_enumeration(self, model):
        """All-integer bounded boxes always close within the node budget, so
        the search must prove the enumerated optimum, or infeasibility."""
        points = _feasible_points(model)
        c = model.to_matrices()[0]
        result = _solve(model)
        if not points:
            assert result.status is SolverStatus.INFEASIBLE
            return
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(min(c @ x for x in points), abs=1e-6)
        assert model.check_solution() == []

    @needs_scipy
    @settings(max_examples=60, deadline=None)
    @given(integer_models())
    @example(_presolve_error_model())
    def test_solve_matches_highs(self, model):
        bnb = _solve(model)
        highs = _solve(model, backend="highs")
        assert bnb.status is highs.status
        if highs.status is SolverStatus.OPTIMAL:
            assert bnb.objective == pytest.approx(highs.objective, abs=1e-6)


# ------------------------------------------------- deterministic regression

class TestStaleActivityRegression:
    def make_chain(self):
        """A chain whose propagation tightens several variables per row pass.

        ``x0 >= 6`` combined with ``x0 + x1 + x2 <= 10`` and
        ``x1 - x2 >= 0`` forces, inside a *single* row visit, first
        ``x1 <= 4`` then (from the already-updated activity) ``x2 <= 4``;
        a kernel that keeps using the activity sums computed at the top of
        the row reaches a weaker box.  The expected fixpoint is computed by
        hand: lo = (6, 0, 0), hi = (10, 4, 4).
        """
        model = Model("chain")
        x0 = model.add_integer("x0", low=0, up=10)
        x1 = model.add_integer("x1", low=0, up=10)
        x2 = model.add_integer("x2", low=0, up=10)
        model.add_constraint(x0 >= 6)
        model.add_constraint(x0 + x1 + x2 <= 10)
        model.add_constraint(x1 - x2 >= 0)
        model.minimize(x0 + x1 + x2)
        return model

    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_fixpoint_uses_fresh_mid_pass_activities(self, kernel):
        model = self.make_chain()
        rows, _c, lo, hi, is_int = _matrices(model)
        if kernel == "vectorized":
            ok = bb._propagate(rows, lo, hi, is_int)
        else:
            ok = _propagate_scalar(rows, lo, hi, is_int)
        assert ok
        np.testing.assert_allclose(lo, [6.0, 0.0, 0.0])
        np.testing.assert_allclose(hi, [10.0, 4.0, 4.0])

    def test_chain_solves_to_the_hand_computed_optimum(self):
        result = _solve(self.make_chain())
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(6.0)


# ------------------------------------------------------------- tolerances

class TestToleranceConstants:
    def test_tighten_tolerance_is_the_single_named_constant(self):
        """The kernels and the reference share ``_TIGHTEN_TOL``; no stray literals.

        The historical loops compared against a bare ``1e-7`` in four
        places — if the constant and a literal ever drift apart, the
        kernels stop iterating to the same fixpoint as the reference, which
        is exactly the class of bug the differential suite exists to
        prevent.
        """
        assert bb._TIGHTEN_TOL == 1e-7
        source = inspect.getsource(bb)
        assert source.count("1e-7") == 1, (
            "magic tightening tolerance duplicated outside _TIGHTEN_TOL"
        )

    def test_infinity_convention_is_shared(self):
        assert bb._INF == math.inf
