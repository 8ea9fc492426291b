"""HiGHS backend: solve a :class:`repro.ilp.Model` via ``scipy.optimize.milp``.

This is the historical solve path of ``repro.ilp.solver``, lowered into a
:class:`~repro.ilp.backends.base.SolverBackend` so it is one option among
several instead of a hard dependency.  scipy is imported behind a guard:
without it the backend reports itself unavailable (and the default backend
is the dependency-free branch-and-bound instead), so the repository
imports and runs on a scipy-free interpreter.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.ilp.backends.base import BackendUnavailableError, SolverBackend, empty_model_result
from repro.ilp.model import Model, ObjectiveSense
from repro.ilp.status import SolverStatus

try:  # scipy is an optional extra since the backend refactor
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array
except ImportError:  # pragma: no cover - exercised by the scipy-free CI leg
    Bounds = LinearConstraint = milp = csr_array = None

_STATUS_BY_CODE = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.TIME_LIMIT,   # iteration or time limit
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}

#: Tolerance for deciding that a returned value is integral.
_INTEGRALITY_TOL = 1e-4


def _usable_incumbent(x, model: Model) -> bool:
    """True when ``x`` is a finite solution vector respecting integrality.

    scipy's ``milp`` reports status code 1 for *any* iteration or time limit.
    Depending on where HiGHS was interrupted, ``result.x`` may then be absent,
    or hold a fractional/non-finite relaxation instead of a true MILP
    incumbent.  Reporting such a vector as ``FEASIBLE`` would push garbage
    start times and bindings into the scheduler, so anything non-finite or
    non-integral is treated as "no incumbent".
    """
    if x is None:
        return False
    arr = np.asarray(x, dtype=float)
    if arr.size != len(model.variables) or not np.all(np.isfinite(arr)):
        return False
    for var in model.variables:
        if var.kind in ("integer", "binary"):
            value = arr[var.index]
            if abs(value - round(value)) > _INTEGRALITY_TOL:
                return False
    return True


class HighsBackend(SolverBackend):
    """Lower a model to sparse matrix form and solve it with scipy's HiGHS."""

    name = "highs"

    def is_available(self) -> bool:
        """True when scipy (and therefore ``scipy.optimize.milp``) imported."""
        return milp is not None

    def solve(self, model: Model, options=None):
        """Solve with HiGHS, filling variable values on a feasible outcome.

        Raises
        ------
        BackendUnavailableError
            When scipy is not installed; select ``branch-and-bound``
            instead (the default on such an interpreter).
        """
        from repro.ilp.solver import SolveResult, SolverOptions

        options = options or SolverOptions()
        trivial = empty_model_result(model)
        if trivial is not None:
            trivial.backend_name = self.name
            return trivial
        if not self.is_available():
            raise BackendUnavailableError(
                "the 'highs' backend needs scipy (pip install 'repro[highs]'); "
                "use the 'branch-and-bound' backend on scipy-free environments"
            )
        start = time.perf_counter()

        c, A, lower, upper, lb, ub, integrality = model.to_matrices()

        constraints = []
        if A.shape[0] > 0:
            matrix = csr_array((A.data, A.indices, A.indptr), shape=A.shape)
            constraints.append(LinearConstraint(matrix, lower, upper))

        milp_options = {"disp": False, "presolve": True}
        if options.time_limit_s is not None:
            milp_options["time_limit"] = float(options.time_limit_s)
        if options.mip_rel_gap is not None:
            milp_options["mip_rel_gap"] = float(options.mip_rel_gap)
        if options.node_limit is not None:
            milp_options["node_limit"] = int(options.node_limit)

        def run():
            return milp(c=c, constraints=constraints, integrality=integrality,
                        bounds=Bounds(lb, ub), options=milp_options)

        result = run()
        if _STATUS_BY_CODE.get(result.status) is SolverStatus.ERROR:
            # HiGHS's presolve can fail on models it solves without it
            # (scipy 1.17.1 reports "Solve error" on a tiny infeasible
            # equality model), so retry once without presolve within what
            # is left of the time limit.
            milp_options["presolve"] = False
            if options.time_limit_s is not None:
                milp_options["time_limit"] = max(
                    0.0, float(options.time_limit_s) - (time.perf_counter() - start)
                )
            result = run()
        elapsed = time.perf_counter() - start

        status = _STATUS_BY_CODE.get(result.status, SolverStatus.ERROR)
        has_solution = _usable_incumbent(result.x, model)
        if status is SolverStatus.TIME_LIMIT:
            # Code 1 covers both "limit hit, incumbent available" (a feasible
            # best-effort result, the paper's 30-minute practice) and "limit
            # hit with no usable incumbent" — the latter must stay
            # non-feasible so callers raise a clear error (or return a
            # verified warm start) instead of consuming garbage.
            status = SolverStatus.FEASIBLE if has_solution else SolverStatus.TIME_LIMIT
        if status is SolverStatus.OPTIMAL and not has_solution:
            status = SolverStatus.ERROR

        values = {}
        objective_value: Optional[float] = None
        if has_solution and status.is_feasible():
            x = np.asarray(result.x, dtype=float)
            for var in model.variables:
                raw = float(x[var.index])
                if var.kind in ("integer", "binary"):
                    raw = float(round(raw))
                var.value = raw
                values[var.name] = raw
            objective_value = float(model.objective_value()) if model.objective else 0.0
        else:
            for var in model.variables:
                var.value = None

        gap = getattr(result, "mip_gap", None)
        return SolveResult(
            status=status,
            objective=objective_value,
            values=values,
            wall_time_s=elapsed,
            message=str(getattr(result, "message", "")),
            mip_gap=float(gap) if gap is not None else None,
            backend_name=self.name,
            bound=_objective_bound(result, model),
        )


def _objective_bound(result, model: Model) -> Optional[float]:
    """HiGHS's MIP dual bound in the model's own objective, or ``None``.

    ``milp`` minimizes ``c @ x``: ``c`` is negated for maximization and
    leaves out the objective's constant, so both are restored here.
    """
    dual = getattr(result, "mip_dual_bound", None)
    if dual is None or model.objective is None or not np.isfinite(dual):
        return None
    sign = -1.0 if model.objective.sense is ObjectiveSense.MAXIMIZE else 1.0
    return sign * float(dual) + model.objective.expression.constant
