"""Solve entry point: options, result type, and backend dispatch.

Since the backend refactor the actual solving lives in
:mod:`repro.ilp.backends` (``"highs"``, ``"branch-and-bound"``); this
module keeps the stable surface every caller uses — :class:`SolverOptions`,
:class:`SolveResult`, :func:`solve_model` — and routes each solve to the
backend named by ``options.backend`` (defaulting to
:data:`~repro.ilp.backends.DEFAULT_BACKEND`).  The warm-start rules apply
here, once for every backend: a warm start whose objective meets the
model's certified lower bound closes the solve before any backend runs,
and a limited solve that found nothing better returns the warm start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.ilp.model import Model, ObjectiveSense
from repro.ilp.status import SolverStatus
from repro.obs.trace import span as obs_span


@dataclass
class WarmStart:
    """A known-good incumbent handed to a backend before its search starts.

    ``values`` maps *every* variable name of the model to a value; partial
    assignments are rejected.  Backends verify the point against the model
    (bounds, integrality, all rows) and silently ignore it when it does not
    fit — callers hand over solutions from *neighboring* configurations
    (e.g. the nearest already-solved exploration candidate), which may
    legitimately be infeasible under the current one.  A valid warm start
    bounds the search from the start.  A solve that *completes* keeps its
    status and objective, but the point it returns may be the warm start
    itself: :func:`solve_model` returns a warm start whose objective meets
    the model's certified :attr:`~repro.ilp.Model.lower_bound` without
    searching.  Under a time or node limit it is the fallback incumbent:
    a solve that ends with nothing better returns it as ``FEASIBLE``.
    ``objective`` is an optional advisory bound (backends recompute it
    from ``values``); ``label`` records provenance for diagnostics, e.g.
    the neighbor's candidate id.
    """

    values: Dict[str, float]
    objective: Optional[float] = None
    label: Optional[str] = None


@dataclass
class SolverOptions:
    """Backend options.

    ``time_limit_s`` mirrors the paper's 30-minute cap on the scheduling and
    synthesis ILPs; when the limit is reached the best incumbent — the
    backend's, or the warm start when that is better — is reported as
    :attr:`SolverStatus.FEASIBLE`.  ``backend`` names a solver
    backend (:func:`repro.ilp.backends.get_backend`); ``None`` selects
    :data:`~repro.ilp.backends.DEFAULT_BACKEND`.  ``warm_start`` optionally
    seeds the search with a known incumbent; it is runtime advice, not part
    of the problem, and must never enter cache keys.
    """

    time_limit_s: Optional[float] = None
    mip_rel_gap: Optional[float] = None
    node_limit: Optional[int] = None
    backend: Optional[str] = None
    warm_start: Optional[WarmStart] = None


@dataclass(frozen=True)
class SolveRecord:
    """Provenance of one exact solve (:meth:`SolveResult.record`).

    The exact engines attach it to their output (``Schedule.solve``,
    ``ChipArchitecture.solve``), so it travels inside cached artifacts.
    ``backend`` is :attr:`SolveResult.backend_name`.  ``bound`` is a
    proven bound on the objective in the model's own sense (a lower bound
    when minimizing): the model's certified lower bound on a bound close,
    HiGHS's MIP dual bound on a HiGHS solve, the stronger of the two when
    a limited solve returned the warm start, ``None`` otherwise.
    """

    backend: Optional[str]
    status: SolverStatus
    objective: Optional[float]
    mip_gap: Optional[float]
    wall_time_s: float
    warm_start_used: bool
    bound: Optional[float] = None


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``backend_name`` records which backend produced the outcome.
    ``warm_start_used`` records whether the returned point is, or the
    search consumed, a valid :class:`WarmStart` (HiGHS via scipy has no
    warm-start API, so it reports ``True`` only when :func:`solve_model`
    returned the warm start at a limit).  ``bound`` is the
    proven objective bound of :class:`SolveRecord`.  :meth:`record`
    carries all of them, with the status and objective, into the
    artifacts.  A solve that :func:`solve_model` closes at the model's
    lower bound reports ``backend_name="bound"``: a provenance label, not
    a backend of :data:`~repro.ilp.backends.BACKENDS`.
    """

    status: SolverStatus
    objective: Optional[float] = None
    values: Dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    message: str = ""
    mip_gap: Optional[float] = None
    backend_name: Optional[str] = None
    warm_start_used: bool = False
    bound: Optional[float] = None

    def __bool__(self) -> bool:
        return self.status.is_feasible()

    def value(self, name: str) -> float:
        return self.values[name]

    def record(self) -> SolveRecord:
        """This outcome's provenance, without the variable values."""
        return SolveRecord(
            backend=self.backend_name,
            status=self.status,
            objective=self.objective,
            mip_gap=self.mip_gap,
            wall_time_s=self.wall_time_s,
            warm_start_used=self.warm_start_used,
            bound=self.bound,
        )


def solve_model(model: Model, options: Optional[SolverOptions] = None) -> SolveResult:
    """Solve ``model`` with the backend named in ``options``.

    When the warm start is a complete feasible point whose objective meets
    the model's certified :attr:`~repro.ilp.Model.lower_bound`, it is
    optimal: it is returned as OPTIMAL (``backend_name="bound"``) without
    running any backend.  Otherwise the function dispatches to the
    named backend (``options.backend``, or
    :data:`~repro.ilp.backends.DEFAULT_BACKEND` when unset).  When that
    solve ends at a limit with no incumbent better than a feasible warm
    start, the warm start is returned as FEASIBLE instead (see
    :func:`_warm_at_limit`).  A FEASIBLE result of a minimized model that
    carries no bound gets the model's lower bound and the gap to it (see
    :func:`_bound_limited`).  On a feasible outcome every variable's
    ``.value`` is filled, so downstream code can read ``var.solution``
    directly.  The whole solve is one ``solver:solve`` span tagged with
    the producing backend and the status.
    """
    # Imported here: the backends package imports this module for the
    # options/result types, so the dependency must stay one-directional at
    # import time.
    from repro.ilp.backends import DEFAULT_BACKEND, get_backend

    options = options or SolverOptions()
    backend = get_backend(options.backend or DEFAULT_BACKEND)
    warm = options.warm_start
    with obs_span("solver:solve", category="solver") as solve_span:
        start = time.perf_counter()
        # Both warm-start rules need a minimized model and a verified warm
        # start.  It is verified once, before the backend fills (and the
        # check would clear) the variables' values.
        warm_objective = None
        if (warm is not None and model.objective is not None
                and model.objective.sense is ObjectiveSense.MINIMIZE):
            warm_objective = model.feasible_objective(warm.values)
        result = _close_at_bound(model, warm, warm_objective, start)
        if result is None:
            result = backend.solve(model, options)
            result = _warm_at_limit(model, warm, warm_objective, result) or result
            _bound_limited(model, result)
        solve_span.set(backend=result.backend_name, status=result.status.value)
    return result


def _close_at_bound(model: Model, warm: Optional[WarmStart], objective: Optional[float],
                    start: float) -> Optional[SolveResult]:
    """The warm start as an OPTIMAL result when it meets the lower bound.

    ``objective`` is the warm start's verified objective on a minimized
    model (``None`` otherwise).  ``None`` unless the model carries a lower
    bound and that objective is within ``1e-6`` of it (no feasible point
    can be lower, so it is an optimum).
    """
    if (objective is None or model.lower_bound is None
            or objective > model.lower_bound + 1e-6):
        return None
    return _warm_result(
        model, warm, objective, SolverStatus.OPTIMAL,
        wall_time_s=time.perf_counter() - start,
        message="warm start meets the certified lower bound",
        backend_name="bound",
        bound=model.lower_bound,
        mip_gap=0.0,
    )


def _warm_at_limit(model: Model, warm: Optional[WarmStart], objective: Optional[float],
                   result: SolveResult) -> Optional[SolveResult]:
    """The warm start as a FEASIBLE result when a limited solve found no better.

    ``objective`` is the warm start's verified objective, as for
    :func:`_close_at_bound`.  ``None`` unless there is one and the backend
    stopped at a limit (``FEASIBLE`` or ``TIME_LIMIT``) with no incumbent,
    or one strictly worse than the warm start.  The result
    keeps the backend's name and wall time; its ``bound`` and ``mip_gap``
    are those of :func:`_limit_bound`.
    """
    if (objective is None
            or result.status not in (SolverStatus.FEASIBLE, SolverStatus.TIME_LIMIT)
            or (result.objective is not None and result.objective <= objective + 1e-6)):
        return None
    bound, gap = _limit_bound(model, result.bound, objective)
    return _warm_result(
        model, warm, objective, SolverStatus.FEASIBLE,
        wall_time_s=result.wall_time_s,
        message=f"{result.message} [returned the warm start]",
        backend_name=result.backend_name,
        bound=bound,
        mip_gap=gap,
    )


def _bound_limited(model: Model, result: SolveResult) -> None:
    """Give a FEASIBLE minimizing result that carries no bound the model's.

    A backend may stop at a limit on an incumbent of its own, or on the
    warm start it was handed (branch and bound returns it as its own
    incumbent, so :func:`_warm_at_limit` never fires).  Without this the
    result would carry no bound and no gap although the model's certified
    :attr:`~repro.ilp.Model.lower_bound` is one.
    """
    if (result.status is SolverStatus.FEASIBLE and result.bound is None
            and result.objective is not None and model.objective is not None
            and model.objective.sense is ObjectiveSense.MINIMIZE):
        result.bound, result.mip_gap = _limit_bound(model, None, result.objective)


def _limit_bound(model: Model, backend_bound: Optional[float],
                 objective: float) -> Tuple[Optional[float], Optional[float]]:
    """``(bound, mip_gap)`` of a solve that stopped at a limit on ``objective``.

    The bound is the higher of the model's certified lower bound and the
    backend's own; the gap is ``(objective - bound) / |objective|``
    (HiGHS's definition), or ``None`` without a bound or at objective 0.
    """
    bounds = [b for b in (backend_bound, model.lower_bound) if b is not None]
    bound = max(bounds) if bounds else None
    gap = (objective - bound) / abs(objective) if bound is not None and objective else None
    return bound, gap


def _warm_result(model: Model, warm: WarmStart, objective: float, status: SolverStatus,
                 **fields) -> SolveResult:
    """A ``status`` result returning the verified ``warm`` point, values filled."""
    values = {}
    for var in model.variables:
        value = float(warm.values[var.name])
        if var.kind != "continuous":
            value = float(round(value))
        var.value = values[var.name] = value
    return SolveResult(status=status, objective=objective, values=values,
                       warm_start_used=True, **fields)
