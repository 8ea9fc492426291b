"""Dependency-free MILP backend: best-first branch and bound, LP-free.

The backend solves a :class:`repro.ilp.Model` with nothing beyond numpy and
the sparse matrices the model already knows how to produce
(:meth:`Model.to_matrices`).  It exists so the whole synthesis flow runs on
an interpreter without scipy — as the default backend there, and as an
explicitly selectable ``"branch-and-bound"`` backend in tests and CI.

Instead of an LP relaxation, nodes are bounded by *interval propagation*:

* every constraint row ``row_lo <= a . x <= row_hi`` tightens each of its
  variables' bounds from the residual activity of the others, iterated to a
  fixpoint (integer bounds are rounded inward);
* a node's objective bound is the box minimum ``sum_j min(c_j lo_j, c_j
  hi_j)`` — valid for any point in the box, no LP needed;
* once an incumbent exists, an *objective-cut row* ``c . x <= incumbent -
  eps`` joins the propagated system, so bound tightening actively shrinks
  every surviving box toward strictly-improving solutions instead of only
  refuting whole boxes at pruning time;
* incumbents come from a greedy *dive*: repeatedly fix the first unfixed
  integer to its objective-preferred bound (falling back to the opposite
  bound when propagation refutes it), then assign the remaining continuous
  variables greedily; every candidate assignment is verified against all
  original rows before it is accepted, so the backend never returns an
  invalid solution.

The propagation, bounding and verification kernels run over the nonzeros
of the CSR rows only.  Their per-term reference loops live in
``tests/test_bb_differential.py``, which imports this module's tolerances
(:data:`_TIGHTEN_TOL` et al.) and checks both reach the same fixpoint.

A :class:`~repro.ilp.solver.WarmStart` in ``SolverOptions.warm_start`` is
verified against the model and, when valid, seeds the search: nodes whose
bound cannot beat the warm objective are pruned from the start (the cut row
opens at ``warm_objective + eps``, so equally-good solutions remain
reachable and the search still returns its own incumbent on ties — a warm
start changes node counts, never the reported status or objective).  The
warm point itself is the returned incumbent only when the search finds
nothing at least as good, e.g. at a time limit.

Search is best-first over the node bound (a heap), branching by halving the
first unfixed integer variable's range, which keeps the tree logarithmic in
the bound widths.  Without an LP bound it is exact only on small models:
it closes neither the IVD nor the PCR scheduling ILP within 20 s, and
without a warm start returns ``TIME_LIMIT`` with no incumbent on both.
``time_limit_s``/``node_limit`` are checked at every search node, dive fix
and completion fix; at a limit the best incumbent (or the verified warm
start) is ``FEASIBLE``, no incumbent is ``TIME_LIMIT`` — mirroring the
HiGHS status contract.  *Unbounded* models (an improving direction on an
infinite box) are not detected and may enumerate until a limit fires; the
synthesis formulations never produce them.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ilp.backends.base import SolverBackend, empty_model_result
from repro.ilp.model import CsrMatrix, Model
from repro.ilp.status import SolverStatus
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span, tracing_enabled

_INF = math.inf
#: Absolute feasibility tolerance for row activities and bound crossings.
_FEAS_TOL = 1e-6
#: Tolerance for treating an integer bound as attained.
_INT_TOL = 1e-6
#: Objective epsilon under which two incumbents are considered equal.
_OBJ_TOL = 1e-9
#: Minimum improvement for a propagation pass to book a bound as tightened.
#: Shared by the CSR kernels and the tests' scalar reference — a private
#: literal in either would make them disagree on marginal tightenings.
_TIGHTEN_TOL = 1e-7
#: Fixpoint cap: propagation passes per node before settling for the
#: current (still valid, just less tight) box.
_MAX_PASSES = 40


class _RowSystem:
    """The constraint rows in CSR form, with the objective cut as last row.

    The cut row ``c . x <= cut_hi`` is disabled by an infinite ``cut_hi``.
    ``row_of`` names every nonzero's row, ``by_col`` sorts the nonzeros by
    column, and ``col_starts`` is where each of ``cols`` (the columns with
    a nonzero) begins in that order.  Verification reads the first ``m``
    rows only, so a solution that merely fails to *improve* the incumbent
    is never misreported as infeasible.
    """

    def __init__(self, A: CsrMatrix, lower, upper, c) -> None:
        c = np.asarray(c, dtype=float)
        obj_cols = np.flatnonzero(c)
        self.m, n = A.shape
        #: Nonzeros of the original rows (the cut row's follow them).
        self.nnz = len(A.data)
        self.indptr = np.append(A.indptr, A.indptr[-1] + len(obj_cols))
        self.indices = np.concatenate([A.indices, obj_cols])
        self.data = np.concatenate([A.data, c[obj_cols]])
        self.lower = np.append(np.asarray(lower, dtype=float), -_INF)
        self.upper = np.append(np.asarray(upper, dtype=float), _INF)
        self.row_of = np.repeat(np.arange(self.m + 1), np.diff(self.indptr))
        self.pos = self.data > 0.0
        self.by_col = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=n)
        self.cols = np.flatnonzero(counts)
        self.col_starts = (np.cumsum(counts) - counts)[self.cols]

    # The cut bound lives in ``upper[-1]``; nothing precomputed depends on it.
    def set_cut(self, cut_hi: float) -> None:
        self.upper[-1] = cut_hi


# ------------------------------------------------------------- CSR kernels

def _propagate(sys: _RowSystem, lo, hi, is_int) -> bool:
    """Tighten ``lo``/``hi`` in place; ``False`` when proven infeasible.

    One Jacobi-style pass per iteration over the nonzeros.  Activities are
    recomputed from the *current* bounds at the top of every pass, so no
    tightening is ever derived from a stale activity sum.  Empty rows sum
    to zero through ``bincount``'s ``minlength``; empty columns are left out
    of the ``reduceat`` segments, which would otherwise return a
    neighbouring column's first element instead of the identity.
    """
    a, cols, row_of, pos = sys.data, sys.indices, sys.row_of, sys.pos
    num_rows = sys.m + 1
    row_lo, row_hi = sys.lower, sys.upper
    nz_lo, nz_hi = row_lo[row_of], row_hi[row_of]
    has_lo, has_hi = np.isfinite(nz_lo), np.isfinite(nz_hi)
    by_col, starts, var_cols = sys.by_col, sys.col_starts, sys.cols
    int_cols = np.asarray(is_int, dtype=bool)[var_cols]
    for _ in range(_MAX_PASSES):
        lo_c, hi_c = lo[cols], hi[cols]
        lo_inf, hi_inf = np.isinf(lo_c), np.isinf(hi_c)
        lo_f = np.where(lo_inf, 0.0, lo_c)
        hi_f = np.where(hi_inf, 0.0, hi_c)
        # Finite activity parts and infinite-contribution counts, per
        # nonzero and summed per row.
        cmin = a * np.where(pos, lo_f, hi_f)
        cmax = a * np.where(pos, hi_f, lo_f)
        cmin_inf = np.where(pos, lo_inf, hi_inf)
        cmax_inf = np.where(pos, hi_inf, lo_inf)
        min_fin = np.bincount(row_of, weights=cmin, minlength=num_rows)
        max_fin = np.bincount(row_of, weights=cmax, minlength=num_rows)
        min_ninf = np.bincount(row_of[cmin_inf], minlength=num_rows)
        max_ninf = np.bincount(row_of[cmax_inf], minlength=num_rows)
        if bool(np.any((min_ninf == 0) & (min_fin > row_hi + _FEAS_TOL))):
            return False
        if bool(np.any((max_ninf == 0) & (max_fin < row_lo - _FEAS_TOL))):
            return False
        # Residual activity of the *other* terms in each row: finite
        # exactly when no other term contributes an infinity.
        ok_hi = has_hi & (min_ninf[row_of] == cmin_inf)
        ok_lo = has_lo & (max_ninf[row_of] == cmax_inf)
        lim_hi = (nz_hi - (min_fin[row_of] - cmin)) / a
        lim_lo = (nz_lo - (max_fin[row_of] - cmax)) / a
        # a > 0: a x_j <= row_hi - rest_min caps hi, row_lo side lifts lo;
        # a < 0 swaps the directions.
        cap = np.where(pos, np.where(ok_hi, lim_hi, _INF), np.where(ok_lo, lim_lo, _INF))
        lift = np.where(pos, np.where(ok_lo, lim_lo, -_INF), np.where(ok_hi, lim_hi, -_INF))
        cand_hi = np.minimum.reduceat(cap[by_col], starts)
        cand_lo = np.maximum.reduceat(lift[by_col], starts)
        cand_hi = np.where(int_cols & np.isfinite(cand_hi), np.floor(cand_hi + _INT_TOL), cand_hi)
        cand_lo = np.where(int_cols & np.isfinite(cand_lo), np.ceil(cand_lo - _INT_TOL), cand_lo)
        upd_hi = cand_hi < hi[var_cols] - _TIGHTEN_TOL
        upd_lo = cand_lo > lo[var_cols] + _TIGHTEN_TOL
        if not (bool(upd_hi.any()) or bool(upd_lo.any())):
            return True
        hi[var_cols[upd_hi]] = cand_hi[upd_hi]
        lo[var_cols[upd_lo]] = cand_lo[upd_lo]
        if bool(np.any(lo > hi + _FEAS_TOL)):
            return False
    return True


def _box_bound(sys: _RowSystem, lo, hi) -> float:
    """Objective lower bound of a box: each term at its cheapest end."""
    start = sys.indptr[-2]
    cols, c = sys.indices[start:], sys.data[start:]
    return float((c * np.where(c > 0.0, lo[cols], hi[cols])).sum())


def _verified(sys: _RowSystem, x) -> bool:
    """Check a full assignment against every *original* row."""
    k = sys.nnz
    x = np.asarray(x, dtype=float)
    activity = np.bincount(
        sys.row_of[:k], weights=sys.data[:k] * x[sys.indices[:k]], minlength=sys.m
    )
    return bool(
        np.all(activity <= sys.upper[: sys.m] + _FEAS_TOL)
        and np.all(activity >= sys.lower[: sys.m] - _FEAS_TOL)
    )


class BranchAndBoundBackend(SolverBackend):
    """Best-first branch and bound over the model's sparse rows."""

    name = "branch-and-bound"

    def __init__(self, max_nodes: int = 500_000) -> None:
        #: Hard safety cap on explored nodes when the options carry no
        #: ``node_limit`` of their own; prevents an un-capped call on a hard
        #: model from spinning forever.
        self.max_nodes = max_nodes

    @staticmethod
    def _first_unfixed_int(int_indices: Sequence[int], lo, hi) -> Optional[int]:
        for j in int_indices:
            if hi[j] - lo[j] > _INT_TOL:
                return j
        return None

    # ------------------------------------------------------------ incumbents
    def _complete(self, rows, c, lo, hi, is_int,
                  expired: Callable[[], bool]) -> Optional[Tuple[float, np.ndarray, bool]]:
        """Greedily assign the continuous variables of an int-fixed box.

        Continuous variables are fixed to their objective-preferred bound in
        decreasing ``|c_j|`` order (deciding the expensive variables first,
        letting propagation push the cheap ones), re-propagating after each
        fix so forced consequences cascade.  Returns the verified
        ``(objective, x, exact)`` or ``None`` when the greedy choices dead
        end; the search never accepts an unverified point.  ``exact`` marks
        a completion that attains the box's objective bound — only then is
        the box provably closed, since without an LP a cheaper point with a
        different continuous trade-off cannot be ruled out.  ``expired`` is
        asked before every fix; when it answers ``True`` the completion gives
        up and returns ``None``.
        """
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        entry_bound = _box_bound(rows, lo, hi)
        order = sorted(
            (j for j in range(len(c)) if not is_int[j]),
            key=lambda j: (-abs(c[j]), j),
        )
        for j in order:
            if hi[j] - lo[j] <= 1e-9:
                continue
            if expired():
                return None
            value = lo[j] if c[j] >= 0 else hi[j]
            if value == -_INF or value == _INF:
                other = hi[j] if value == -_INF else lo[j]
                value = other if other not in (-_INF, _INF) else 0.0
                value = min(max(value, lo[j]), hi[j])
            lo[j] = hi[j] = value
            if not _propagate(rows, lo, hi, is_int):
                return None
        x = np.where(np.asarray(is_int), np.round(lo), lo)
        if not _verified(rows, x):
            return None
        objective = float(np.dot(c, x))
        exact = objective <= entry_bound + _FEAS_TOL * max(1.0, abs(objective))
        return objective, x, exact

    def _dive(self, rows, c, lo, hi, is_int, int_indices,
              expired: Callable[[], bool]) -> Optional[Tuple[float, np.ndarray, bool]]:
        """Greedy rounding: fix integers toward the objective, repair once.

        The "schedule everything as early as possible" shape of the flow's
        models makes this dive a strong incumbent source; a failed dive is
        no loss of correctness (the search proper still explores the node).
        ``expired`` is asked before every integer fix and inside the final
        completion; an expired dive returns ``None``.
        """
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        while True:
            if expired():
                return None
            j = self._first_unfixed_int(int_indices, lo, hi)
            if j is None:
                return self._complete(rows, c, lo, hi, is_int, expired)
            candidates = [lo[j], hi[j]] if c[j] >= 0 else [hi[j], lo[j]]
            candidates = [v for v in candidates if v not in (-_INF, _INF)]
            if not candidates:
                candidates = [0.0]
            for value in candidates:
                trial_lo, trial_hi = lo.copy(), hi.copy()
                trial_lo[j] = trial_hi[j] = value
                if _propagate(rows, trial_lo, trial_hi, is_int):
                    lo, hi = trial_lo, trial_hi
                    break
            else:
                return None

    # ------------------------------------------------------------ warm start
    def _usable_warm_start(self, model: Model, warm, c, lo, hi,
                           rows: _RowSystem) -> Optional[Tuple[float, np.ndarray]]:
        """Validate a warm start against the model; ``None`` when unusable.

        The incumbent must name every variable, respect the root bounds and
        integrality, and satisfy every row — an invalid warm start is
        silently ignored (callers hand over heuristic schedules from
        *neighboring* configurations, which legitimately may not fit).
        """
        values = getattr(warm, "values", None)
        if not values:
            return None
        x = np.empty(len(model.variables), dtype=float)
        for var in model.variables:
            if var.name not in values:
                return None
            raw = float(values[var.name])
            if var.kind in ("integer", "binary"):
                rounded = round(raw)
                if abs(raw - rounded) > _FEAS_TOL:
                    return None
                raw = float(rounded)
            x[var.index] = raw
        if bool(np.any(x < lo - _FEAS_TOL)) or bool(np.any(x > hi + _FEAS_TOL)):
            return None
        if not _verified(rows, x):
            return None
        return float(np.dot(c, x)), x

    # ------------------------------------------------------------------ solve
    def solve(self, model: Model, options=None):
        """Solve ``model`` exactly (small instances) or best-effort at limits."""
        with obs_span("bb:search", category="solver") as bb_span:
            return self._solve_in_span(model, options, bb_span)

    def _solve_in_span(self, model: Model, options, bb_span):
        """The search proper; reports its phase breakdown into ``bb_span``."""
        from repro.ilp.solver import SolveResult, SolverOptions

        options = options or SolverOptions()
        trivial = empty_model_result(model)
        if trivial is not None:
            trivial.backend_name = self.name
            return trivial

        start = time.perf_counter()
        # Phase accumulators are only kept (and the timing only paid) when a
        # recorder is active; the untraced hot path calls the kernels direct.
        phase: Optional[Dict[str, float]] = (
            {"propagation_s": 0.0, "verification_s": 0.0}
            if tracing_enabled()
            else None
        )
        propagate = _propagate
        complete = self._complete
        dive = self._dive
        if phase is not None:
            def _timed(key: str, fn):
                def wrapper(*args):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args)
                    finally:
                        phase[key] += time.perf_counter() - t0
                return wrapper

            propagate = _timed("propagation_s", _propagate)
            complete = _timed("verification_s", self._complete)
            dive = _timed("verification_s", self._dive)
        deadline = None
        if options.time_limit_s is not None:
            deadline = start + float(options.time_limit_s)
        node_limit = options.node_limit if options.node_limit is not None else self.max_nodes

        def past_deadline() -> bool:
            return deadline is not None and time.perf_counter() > deadline

        def out_of_budget() -> bool:
            return nodes >= node_limit or past_deadline()

        c_arr, A, lower, upper, lb, ub, integrality = model.to_matrices()
        n = len(model.variables)
        c = np.asarray(c_arr, dtype=float)
        is_int = np.asarray(integrality, dtype=bool)
        rows = _RowSystem(A, lower, upper, c)
        lo = np.asarray(lb, dtype=float).copy()
        hi = np.asarray(ub, dtype=float).copy()
        # Decide binaries (and other unit-range integers) before wide ranges:
        # in the flow's models the binaries are the assignment/ordering
        # decisions, and once they are fixed propagation collapses the start
        # times — which makes both the greedy dive and the search behave
        # like an as-soon-as-possible scheduler instead of bisecting time.
        int_indices = sorted(
            (j for j in range(n) if is_int[j]),
            key=lambda j: (0 if hi[j] - lo[j] <= 1.0 else 1, j),
        )

        warm = self._usable_warm_start(model, options.warm_start, c, lo, hi, rows) \
            if options.warm_start is not None else None
        warm_used = warm is not None
        warm_obj: Optional[float] = warm[0] if warm else None

        best: Optional[Tuple[float, np.ndarray]] = None
        nodes = 0
        status: Optional[SolverStatus] = None
        # True while every leaf reached so far was provably closed (an exact
        # completion, or refuted by propagation).  An open leaf downgrades
        # the exhausted-search claim: OPTIMAL → FEASIBLE with an incumbent,
        # INFEASIBLE → TIME_LIMIT (feasibility unknown) without one.
        leaves_closed = True
        # Lowest bound discarded by margin pruning while strictly below the
        # incumbent.  With a mip_rel_gap the widened margin may prune the
        # true optimum, so the final gap is reported against this bound
        # instead of being asserted as zero.
        discarded_below_best: Optional[float] = None

        def refresh_cut() -> None:
            # The cut admits ties (+eps around the reference objective): a
            # strictly-improving point always survives it, and on ties the
            # search can still reach its own incumbent, keeping the returned
            # solution independent of the warm start.  Gap-widened pruning
            # stays in the explicit margin checks below so its discarded
            # bounds remain accounted for.
            cut = _INF
            if best is not None:
                cut = best[0] - _OBJ_TOL
            if warm_obj is not None:
                cut = min(cut, warm_obj + _OBJ_TOL)
            rows.set_cut(cut)

        def prunable(bound: float) -> bool:
            nonlocal discarded_below_best
            if best is not None and bound >= best[0] - self._margin(best[0], options):
                if bound < best[0] - _OBJ_TOL and (
                    discarded_below_best is None or bound < discarded_below_best
                ):
                    discarded_below_best = bound
                return True
            # Boxes that provably cannot beat the warm incumbent (ties keep
            # surviving: the comparison is strict and eps above it).
            return warm_obj is not None and bound > warm_obj + _OBJ_TOL

        refresh_cut()
        if not propagate(rows, lo, hi, is_int):
            # Refuted at the root: with an active warm cut this only proves
            # "nothing at least as good as the warm incumbent", which *is*
            # the optimality proof for the warm point itself.
            if warm:
                best = warm
                status = SolverStatus.OPTIMAL
            else:
                status = SolverStatus.INFEASIBLE
        else:
            # The dive runs before any node is explored, so its budget is
            # the deadline (and a zero node limit, which explores nothing).
            dived = dive(rows, c, lo, hi, is_int, int_indices, out_of_budget)
            if dived is not None and (warm_obj is None or dived[0] <= warm_obj + _OBJ_TOL):
                best = (dived[0], dived[1])
                refresh_cut()
            heap: List[Tuple[float, int, np.ndarray, np.ndarray]] = [
                (_box_bound(rows, lo, hi), 0, lo, hi)
            ]
            seq = 1
            while heap:
                if out_of_budget():
                    status = SolverStatus.FEASIBLE if best or warm else SolverStatus.TIME_LIMIT
                    break
                bound, _, lo_n, hi_n = heapq.heappop(heap)
                if prunable(bound):
                    continue
                nodes += 1
                j = self._first_unfixed_int(int_indices, lo_n, hi_n)
                if j is None:
                    candidate = complete(rows, c, lo_n, hi_n, is_int, past_deadline)
                    if candidate is None:
                        leaves_closed = False
                        continue
                    obj, x, exact = candidate
                    if not exact:
                        leaves_closed = False
                    if (best is None or obj < best[0] - _OBJ_TOL) and (
                        warm_obj is None or obj <= warm_obj + _OBJ_TOL
                    ):
                        best = (obj, x)
                        refresh_cut()
                    continue
                if lo_n[j] == -_INF and hi_n[j] == _INF:
                    # Doubly unbounded: fix zero and keep the two open rays.
                    splits = [(0.0, 0.0), (-_INF, -1.0), (1.0, _INF)]
                elif hi_n[j] == _INF:
                    # Unbounded range: peel the finite endpoint off so every
                    # branch still shrinks the box.
                    splits = [(lo_n[j], lo_n[j]), (lo_n[j] + 1, _INF)]
                elif lo_n[j] == -_INF:
                    splits = [(hi_n[j], hi_n[j]), (-_INF, hi_n[j] - 1)]
                else:
                    mid = int(math.floor((lo_n[j] + hi_n[j]) / 2 + 1e-9))
                    splits = [(lo_n[j], float(mid)), (float(mid) + 1, hi_n[j])]
                for child_lo_j, child_hi_j in splits:
                    child_lo, child_hi = lo_n.copy(), hi_n.copy()
                    child_lo[j], child_hi[j] = child_lo_j, child_hi_j
                    if not propagate(rows, child_lo, child_hi, is_int):
                        continue
                    child_bound = _box_bound(rows, child_lo, child_hi)
                    if prunable(child_bound):
                        continue
                    heapq.heappush(heap, (child_bound, seq, child_lo, child_hi))
                    seq += 1
            else:
                if best is None and warm:
                    # The search closed every box at least as good as the
                    # warm incumbent without beating it: the warm point is
                    # optimal (or, with open leaves, simply the best known).
                    best = warm
                if best is not None:
                    status = SolverStatus.OPTIMAL if leaves_closed else SolverStatus.FEASIBLE
                else:
                    status = SolverStatus.INFEASIBLE if leaves_closed else SolverStatus.TIME_LIMIT
            if status is SolverStatus.FEASIBLE and best is None and warm:
                best = warm

        elapsed = time.perf_counter() - start
        values: Dict[str, float] = {}
        objective_value: Optional[float] = None
        if best is not None and status in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE):
            _, x = best
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

        mip_gap: Optional[float] = None
        if status is SolverStatus.OPTIMAL:
            if best is not None and discarded_below_best is not None:
                # Gap-widened pruning may have discarded the true optimum;
                # report the (upper bound on the) remaining gap honestly.
                mip_gap = max(
                    0.0,
                    (best[0] - discarded_below_best) / max(1.0, abs(best[0])),
                )
            else:
                mip_gap = 0.0
        obs_metrics.solver_nodes_counter().inc(nodes)
        if warm_used:
            obs_metrics.warm_start_counter().inc()
        if phase is not None:
            branching_s = max(
                0.0, elapsed - phase["propagation_s"] - phase["verification_s"]
            )
            bb_span.set(
                nodes=nodes,
                warm_start=warm_used,
                propagation_s=round(phase["propagation_s"], 6),
                verification_s=round(phase["verification_s"], 6),
                branching_s=round(branching_s, 6),
            )
        message = f"branch-and-bound: {nodes} nodes explored"
        if warm_used:
            message += ", warm start seeded"
        return SolveResult(
            status=status,
            objective=objective_value,
            values=values,
            wall_time_s=elapsed,
            message=message,
            mip_gap=mip_gap,
            backend_name=self.name,
            warm_start_used=warm_used,
        )

    @staticmethod
    def _margin(incumbent_obj: float, options) -> float:
        """Pruning margin: exactness epsilon, widened by ``mip_rel_gap``."""
        if options.mip_rel_gap:
            return max(_OBJ_TOL, float(options.mip_rel_gap) * abs(incumbent_obj))
        return _OBJ_TOL
