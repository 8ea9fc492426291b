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
    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize import milp as _scipy_milp
    from scipy.sparse import csr_array
except ImportError:  # pragma: no cover - exercised by the scipy-free CI leg
    Bounds = LinearConstraint = _scipy_milp = csr_array = None
try:  # the two halves of scipy's milp, to pass HiGHS options milp does not list
    from scipy.optimize import OptimizeResult
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message
    from scipy.optimize._milp import _highs_wrapper, _milp_iv
except ImportError:  # pragma: no cover - scipy absent, or its milp laid out otherwise
    _milp_iv = None

_STATUS_BY_CODE = {
    0: SolverStatus.OPTIMAL,
    1: SolverStatus.TIME_LIMIT,   # iteration or time limit
    2: SolverStatus.INFEASIBLE,
    3: SolverStatus.UNBOUNDED,
    4: SolverStatus.ERROR,
}

#: Tolerance for deciding that a returned value is integral.
_INTEGRALITY_TOL = 1e-4

#: The options ``scipy.optimize.milp`` documents; any other key goes to HiGHS
#: verbatim.
_MILP_OPTIONS = frozenset({"disp", "presolve", "time_limit", "node_limit", "mip_rel_gap"})

#: The HiGHS option that runs its feasibility-jump heuristic, a search for a
#: first incumbent before the root LP.  A solve that starts from a verified
#: warm start already has one, so it sets the option to ``False`` (see
#: :meth:`HighsBackend.solve`).
_FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def milp(*, c, constraints, integrality, bounds, options):
    """``scipy.optimize.milp``, minus its warning on options it does not list.

    scipy's ``milp`` hands such options to HiGHS verbatim, but warns on
    every call that does (a ``RuntimeWarning``, "Unrecognized options
    detected").  This runs its two halves itself, the input checks and then
    the HiGHS call, and adds those options in between.  A HiGHS build that
    lacks one raises ``AttributeError``.  Where scipy's milp is laid out
    otherwise, this is scipy's ``milp``.
    """
    if _milp_iv is None:
        return _scipy_milp(c=c, constraints=constraints, integrality=integrality,
                           bounds=bounds, options=options)
    documented = {key: value for key, value in options.items() if key in _MILP_OPTIONS}
    c, integrality, lb, ub, indptr, indices, data, b_l, b_u, highs_options = _milp_iv(
        c, integrality, bounds, constraints, documented
    )
    highs_options.update((key, value) for key, value in options.items()
                         if key not in _MILP_OPTIONS)
    raw = _highs_wrapper(c, indptr, indices, data, b_l, b_u, lb, ub, integrality, highs_options)
    status, message = _highs_to_scipy_status_message(raw.get("status"), raw.get("message"))
    x = raw.get("x")
    return OptimizeResult(
        status=status, message=message, success=status == 0,
        x=np.array(x) if x is not None else None, fun=raw.get("fun"),
        mip_node_count=raw.get("mip_node_count"), mip_dual_bound=raw.get("mip_dual_bound"),
        mip_gap=raw.get("mip_gap"),
    )


def _usable_incumbent(x, integrality: np.ndarray) -> bool:
    """True when ``x`` is a finite solution vector respecting integrality.

    scipy's ``milp`` reports status code 1 for *any* iteration or time limit.
    Depending on where HiGHS was interrupted, ``result.x`` may then be absent,
    or hold a fractional/non-finite relaxation instead of a true MILP
    incumbent.  Reporting such a vector as ``FEASIBLE`` would push garbage
    start times and bindings into the scheduler, so anything non-finite or
    non-integral is treated as "no incumbent".  ``integrality`` is the
    lowered model's (nonzero for an integer or binary variable).
    """
    if x is None:
        return False
    arr = np.asarray(x, dtype=float)
    if arr.size != integrality.size or not np.all(np.isfinite(arr)):
        return False
    ints = arr[integrality.astype(bool)]
    return not np.any(np.abs(ints - np.round(ints)) > _INTEGRALITY_TOL)


class HighsBackend(SolverBackend):
    """Lower a model to sparse matrix form and solve it with scipy's HiGHS."""

    name = "highs"

    def __init__(self) -> None:
        #: Whether solves pass ``_FEASIBILITY_JUMP``: ``False`` where scipy's
        #: milp cannot pass it, and from the first HiGHS build that rejects it.
        self.takes_feasibility_jump_option = _milp_iv is not None

    def is_available(self) -> bool:
        """True when scipy (and therefore ``scipy.optimize.milp``) imported."""
        return _scipy_milp is not None

    def solve(self, model: Model, options=None, *, warm_verified: bool = False):
        """Solve with HiGHS, filling variable values on a feasible outcome.

        ``warm_verified`` says that ``options.warm_start`` is a feasible
        point of ``model`` (:func:`repro.ilp.solve_model` checked it).  scipy
        cannot hand that point to HiGHS, but the solve no longer needs a
        first incumbent, so HiGHS's feasibility-jump heuristic, whose only
        job is to find one, is switched off: on the small scheduling models
        it is a fixed few milliseconds a solve.  The option needs a HiGHS
        build that has it: once HiGHS rejects it (``AttributeError``), this
        solve is retried without it and later ones never pass it.

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

        if warm_verified and self.takes_feasibility_jump_option:
            milp_options[_FEASIBILITY_JUMP] = False

        def run():
            return milp(c=c, constraints=constraints, integrality=integrality,
                        bounds=Bounds(lb, ub), options=dict(milp_options))

        try:
            result = run()
        except AttributeError:
            if _FEASIBILITY_JUMP not in milp_options:
                raise
            # An older HiGHS build lacks the option: drop it, for good.
            self.takes_feasibility_jump_option = False
            del milp_options[_FEASIBILITY_JUMP]
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
        has_solution = _usable_incumbent(result.x, integrality)
        if status is SolverStatus.TIME_LIMIT:
            # Code 1 covers both "limit hit, incumbent available" (a feasible
            # best-effort result, the paper's 30-minute practice) and "limit
            # hit with no usable incumbent" — the latter must stay
            # non-feasible so callers raise a clear error (or return a
            # verified warm start) instead of consuming garbage.
            status = SolverStatus.FEASIBLE if has_solution else SolverStatus.TIME_LIMIT
        if status is SolverStatus.OPTIMAL and not has_solution:
            status = SolverStatus.ERROR

        objective_value: Optional[float] = None
        if has_solution and status.is_feasible():
            values = model.fill(np.asarray(result.x, dtype=float))
            objective_value = float(model.objective_value()) if model.objective else 0.0
        else:
            values = model.fill(None)

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
