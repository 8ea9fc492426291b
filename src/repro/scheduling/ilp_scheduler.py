"""Exact ILP scheduler (paper Section 3.1, Table 1, constraints (1)–(7)).

Formulation
-----------
For every device operation ``o_i``:

* integer start time ``ts_i`` (the end time is ``ts_i + duration_i``;
  constraint (2) is satisfied by construction),
* binary ``s_ik`` for every compatible device ``d_k`` with uniqueness
  constraint (1).

Precedence (3): for a sequencing-graph edge ``(o_i, o_j)`` between device
operations, ``ts_j >= te_i + u_c * (1 - same_ij)`` where ``same_ij`` is the
sum of per-device indicators ``both_ijk <= s_ik, s_jk`` — the gap must
cover a transport unless both ends share the device.  Only the upper half
of the AND linearization is modeled, so ``same_ij`` may be 0 on a shared
device.  That is exact: ``same_ij`` only ever *relaxes* precedence and the
``w`` row below, so leaving it 0 is never better than setting it, and the
optimum is unchanged.  With ``u_c > 0`` and ``beta > 0`` every optimum
sets it (a 0 would force a gap of ``u_c`` into ``w``), and the extracted
starts and bindings are a valid schedule either way.

Non-overlap (4): for every unordered pair of operations not related by
precedence, an ordering binary + big-M pair of constraints forces one to
finish before the other starts whenever both are bound to the same device.

Completion time (5): ``tE >= te_i``.

Device load (valid inequality): for every device ``d_k`` with two or more
compatible operations, ``sum_i duration_i * s_ik <= tE`` — operations bound
to one device never overlap (4), start at 0 or later and end by ``tE``
(5).  The rows cut no schedule off; they give the LP relaxation the
device capacity it otherwise lacks (IVD's root bound rises from 12060 to
24060 against an optimum of 28060).

Objective (6): ``minimize alpha * tE + beta * sum w_ij`` where
``w_ij >= (ts_j - te_i) - M * same_ij`` captures the cross-device gap of each
edge (same-device edges contribute nothing, exactly as in the paper).

Horizon.  ``tE`` and every ``ts_i`` are bounded by the serial horizon
(every operation back to back plus one transport per edge), which is also
the big-M.  A warm start verified against the model (bounds, integrality,
every row) with objective ``Z`` tightens that to ``tE <= floor(Z / alpha)``
and ``ts_i <= floor(Z / alpha) - duration_i``: for ``alpha > 0`` and
``beta >= 0``, ``w >= 0`` gives ``alpha * tE* <= Z* <= Z``, so no optimum
is cut off and the warm point itself stays feasible.  The big-M stays at
the serial horizon; presolve tightens it from the clamped bounds.

Certified bound.  :func:`schedule_lower_bound` proves a floor on ``tE``
without an LP: the longest chain of durations, counting a transport on
every *certain-transport* edge (its ends share no compatible device, so
``same_ij`` is the constant 0), and, for every group of interchangeable
devices, the earliest start plus ``ceil(load / devices)`` plus the shortest
tail.  Each certain-transport edge also forces ``w_ij >= u_c``.  For
``alpha > 0`` and ``beta >= 0`` the scheduler stores ``alpha * tE_lb +
beta * u_c * certain_edges`` as ``model.lower_bound``, and
:func:`repro.ilp.solve_model` returns a verified warm start that meets it
as OPTIMAL without calling a backend (IVD: 28060, the list heuristic's
objective).  The bound never enters the model as a row or a variable
bound: each such form made HiGHS slower on IVD or PCR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.ilp import (
    Model,
    SolverLimitError,
    SolverOptions,
    SolverStatus,
    WarmStart,
    lin_sum,
)
from repro.obs.trace import span as obs_span
from repro.scheduling.schedule import Schedule


@dataclass
class IlpSchedulerConfig:
    """Configuration of the exact scheduler.

    ``alpha`` and ``beta`` are the objective weights of completion time and
    storage (gap) time; the paper gives completion time priority
    (``alpha >> beta``).  ``beta = 0`` reproduces the execution-time-only
    baseline of Fig. 9.

    ``solver`` is used verbatim for every solve (it is how the flow threads
    :func:`repro.synthesis.config.solver_options_for` — the single
    ``FlowConfig`` → ``SolverOptions`` construction point — down to this
    engine, backend choice included); by default a 60 s limit on the
    default backend.
    """

    transport_time: int = 10
    alpha: float = 100.0
    beta: float = 1.0
    solver: SolverOptions = field(default_factory=lambda: SolverOptions(time_limit_s=60.0))
    #: Seed every solve with the storage-aware list heuristic's schedule
    #: translated into a full ILP assignment (a :class:`WarmStart`), unless
    #: the caller supplies an external hint.  A warm start that fits the
    #: model bounds ``tE`` by its objective on every backend; the
    #: branch-and-bound backend also seeds its incumbent with it (HiGHS
    #: through scipy takes no warm start).  A warm start whose objective
    #: meets the model's certified lower bound is returned as the optimum
    #: without a search.  A warm start never changes the status or
    #: objective of a completed search; a time- or node-limited one can
    #: return another incumbent.
    warm_start_heuristic: bool = True


def schedule_lower_bound(graph: SequencingGraph, compatible,
                         transport_time: int) -> Tuple[int, int]:
    """A certified floor on the ILP's ``tE`` and the certain-transport edges.

    ``compatible`` maps every device operation to the devices that can
    execute it.  A device edge is a *certain transport* when its ends share
    no compatible device: every schedule pays ``transport_time`` on it.
    Returns ``(tE_floor, certain_edges)`` where ``tE_floor`` is the larger
    of two floors:

    * the longest chain of durations over device edges, plus
      ``transport_time`` on each certain-transport edge of the chain;
    * for every group of devices that is some operation's compatible set,
      over the operations whose compatible set lies within the group: the
      smallest head (longest chain into the operation) plus
      ``ceil(load / len(group))`` plus the smallest tail (longest chain
      after it).  Those operations run on the group's devices, one at a
      time per device, after their heads and before ``tE`` less their
      tails.

    ``tE`` is integral, so rounding each floor up keeps it valid.
    """
    devices = {op.op_id: frozenset(d.device_id for d in compatible[op.op_id])
               for op in graph.device_operations()}
    if not devices:
        return 0, 0
    duration = {op.op_id: op.duration for op in graph.device_operations()}
    certain = {(p, c): not (devices[p] & devices[c]) for p, c in graph.device_edges()}

    def hop(parent: str, child: str) -> int:
        return transport_time if certain[(parent, child)] else 0

    order = [op_id for op_id in graph.topological_order() if op_id in devices]
    head = {op_id: 0 for op_id in order}
    for parent in order:
        for child in graph.successors(parent):
            if child in devices:
                head[child] = max(head[child], head[parent] + duration[parent] + hop(parent, child))
    tail = {op_id: 0 for op_id in order}
    for parent in reversed(order):
        for child in graph.successors(parent):
            if child in devices:
                tail[parent] = max(tail[parent], hop(parent, child) + duration[child] + tail[child])

    floor = max(head[op_id] + duration[op_id] + tail[op_id] for op_id in order)
    for group in set(devices.values()):
        members = [op_id for op_id in order if devices[op_id] <= group]
        load = sum(duration[op_id] for op_id in members)
        edge = (min(head[op_id] for op_id in members)
                + min(tail[op_id] for op_id in members))
        floor = max(floor, edge + load / len(group))
    # The epsilon only absorbs float error in the division.
    return math.ceil(floor - 1e-9), sum(certain.values())


class IlpScheduler:
    """Schedules and binds a sequencing graph by solving the paper's ILP."""

    def __init__(self, library: DeviceLibrary, config: Optional[IlpSchedulerConfig] = None) -> None:
        if len(library) == 0:
            raise ValueError("the device library is empty")
        self.library = library
        self.config = config or IlpSchedulerConfig()

    # ------------------------------------------------------------------ API
    def schedule(self, graph: SequencingGraph,
                 warm_hint: Optional[Schedule] = None) -> Schedule:
        """Solve the ILP and return a validated :class:`Schedule`.

        Parameters
        ----------
        graph:
            The assay's sequencing graph.
        warm_hint:
            Optional known-good schedule of the *same graph* (typically from
            a neighboring flow configuration in an exploration sweep) that is
            translated into a solver warm start.  A hint that does not fit
            this scheduler's device library or constraints is silently
            ignored — the solve is unaffected beyond the attempt.

        Raises
        ------
        SolverLimitError
            If the time limit expires with no incumbent and no usable warm
            start; with one (the list heuristic's, or a fitting
            ``warm_hint``) the limit returns it as a ``FEASIBLE`` schedule.
        RuntimeError
            If the solver proves infeasibility or fails.
        """
        cfg = self.config
        operations = graph.device_operations()
        if not operations:
            schedule = Schedule(graph, self.library, cfg.transport_time)
            return schedule

        compatible = self._compatible_devices(graph)
        horizon = self._default_horizon(graph)
        with obs_span("schedule:model-build", category="schedule") as build_span:
            model, start, assign, device_edges, ordering = self._build_model(
                graph, operations, compatible, horizon
            )
            warm = self._build_warm_start(
                model, graph, warm_hint, operations, compatible, device_edges, ordering,
                horizon + 1,
            )
            t_end_bound = self._bound_by_incumbent(model, warm, operations, horizon)
            if cfg.alpha > 0 and cfg.beta >= 0:
                t_end_floor, certain_edges = schedule_lower_bound(
                    graph, compatible, cfg.transport_time
                )
                model.lower_bound = (cfg.alpha * t_end_floor
                                     + cfg.beta * cfg.transport_time * certain_edges)
            build_span.set(vars=model.num_variables, rows=model.num_constraints,
                           horizon=horizon, t_end_bound=t_end_bound,
                           lower_bound=model.lower_bound)

        options = cfg.solver
        if warm is not None:
            # A copy: the options object is shared flow-wide configuration,
            # the warm start is advice for this one solve.
            options = replace(options, warm_start=warm)
        result = model.solve(options)

        if not result.status.is_feasible():
            message = (
                f"ILP scheduling of {graph.name!r} failed: {result.status.value} ({result.message})"
            )
            if result.status is SolverStatus.TIME_LIMIT:
                # Limit-induced, no incumbent: load-dependent, so raised as a
                # distinct type the batch engine knows not to memoize.
                raise SolverLimitError(message)
            raise RuntimeError(message)

        with obs_span("schedule:extract", category="schedule"):
            schedule = self._extract_schedule(graph, start, assign, compatible)
        schedule.solve = result.record()
        return schedule

    # ------------------------------------------------------------ internals
    def _build_model(self, graph, operations, compatible, horizon):
        """The ILP of the module docstring, bounded by the serial ``horizon``.

        Returns ``(model, start, assign, device_edges, ordering)``: the
        start-time and binding variables the schedule is extracted from,
        and the edges and ordering binaries a warm start must assign.
        """
        cfg = self.config
        big_m = horizon + 1
        model = Model(f"schedule-{graph.name}")

        start: Dict[str, object] = {}
        end_expr: Dict[str, object] = {}
        assign: Dict[Tuple[str, str], object] = {}
        durations: Dict[str, int] = {}
        load: Dict[str, List[object]] = {}

        for op in operations:
            devices = compatible[op.op_id]
            if not devices:
                raise RuntimeError(
                    f"no device in the library can execute operation {op.op_id!r} ({op.kind.value})"
                )
            ts = model.add_integer(f"ts[{op.op_id}]", low=0, up=horizon)
            start[op.op_id] = ts
            durations[op.op_id] = op.duration
            end_expr[op.op_id] = ts + op.duration
            binaries = []
            for device in devices:
                var = model.add_binary(f"s[{op.op_id},{device.device_id}]")
                assign[(op.op_id, device.device_id)] = var
                binaries.append(var)
                load.setdefault(device.device_id, []).append(op.duration * var)
            model.add_constraint(lin_sum(binaries) == 1, name=f"uniq[{op.op_id}]")

        # Same-device indicators for sequencing-graph edges (for precedence
        # slack and the storage objective term).  One-sided AND: ``both``
        # may stay 0 on a shared device, which only tightens (3) and ``w``.
        same: Dict[Tuple[str, str], object] = {}
        device_edges = [
            (p, c)
            for p, c in graph.device_edges()
            if p in start and c in start
        ]
        for parent_id, child_id in device_edges:
            shared = [
                d for d in compatible[parent_id] if d in compatible[child_id]
            ]
            per_device = []
            for device in shared:
                both = model.add_binary(f"both[{parent_id},{child_id},{device.device_id}]")
                model.add_constraint(both <= assign[(parent_id, device.device_id)])
                model.add_constraint(both <= assign[(child_id, device.device_id)])
                per_device.append(both)
            if per_device:
                same_var = model.add_binary(f"same[{parent_id},{child_id}]")
                model.add_constraint(lin_sum(per_device) == same_var)
                same[(parent_id, child_id)] = same_var
            else:
                same[(parent_id, child_id)] = 0

        # Precedence (3): gap >= u_c unless same device.
        for parent_id, child_id in device_edges:
            same_term = same[(parent_id, child_id)]
            model.add_constraint(
                start[child_id] - end_expr[parent_id]
                >= cfg.transport_time - cfg.transport_time * same_term,
                name=f"prec[{parent_id},{child_id}]",
            )

        # Non-overlap (4) for pairs that could share a device and are not
        # already ordered by precedence.
        ordering = self._add_non_overlap(
            model, graph, operations, compatible, assign, start, durations, big_m
        )

        # Completion time (5).
        t_end = model.add_integer("tE", low=0, up=horizon)
        for op in operations:
            model.add_constraint(t_end >= end_expr[op.op_id])

        # Device load: a device's operations run one at a time within tE.
        for device_id, terms in load.items():
            if len(terms) >= 2:
                model.add_constraint(lin_sum(terms) <= t_end, name=f"load[{device_id}]")

        # Storage terms w_ij for cross-device edges (objective (6)).
        gap_terms = []
        for parent_id, child_id in device_edges:
            w = model.add_continuous(f"w[{parent_id},{child_id}]", low=0, up=horizon)
            same_term = same[(parent_id, child_id)]
            model.add_constraint(
                w >= (start[child_id] - end_expr[parent_id]) - big_m * same_term
            )
            gap_terms.append(w)

        objective = cfg.alpha * t_end
        if gap_terms and cfg.beta:
            objective = objective + cfg.beta * lin_sum(gap_terms)
        model.minimize(objective)
        return model, start, assign, device_edges, ordering

    def _bound_by_incumbent(self, model, warm, operations, horizon) -> Optional[int]:
        """Clamp ``tE`` and every ``ts`` by a verified warm start's objective.

        Returns the new bound on ``tE``, or ``None`` when there is nothing
        to clamp by (no verified warm start, or weights for which the bound
        is not valid — see the module docstring).
        """
        cfg = self.config
        if warm is None or cfg.alpha <= 0 or cfg.beta < 0:
            return None
        # tE* <= Z/alpha exactly; the epsilon only absorbs float error in
        # Z/alpha and can only loosen the bound.
        bound = min(horizon, math.floor(warm.objective / cfg.alpha + 1e-6))
        model.get_var("tE").up = bound
        for op in operations:
            model.get_var(f"ts[{op.op_id}]").up = bound - op.duration
        return bound

    def _compatible_devices(self, graph: SequencingGraph):
        return {
            op.op_id: self.library.devices_for(op.kind)
            for op in graph.device_operations()
        }

    def _default_horizon(self, graph: SequencingGraph) -> int:
        """Serial execution plus one transport per edge — always feasible."""
        serial = sum(op.duration for op in graph.device_operations())
        return serial + self.config.transport_time * (len(graph.device_edges()) + 1)

    def _add_non_overlap(self, model, graph, operations, compatible, assign, start,
                         durations, big_m) -> Dict[Tuple[str, str], Tuple[object, object]]:
        """Add the pairwise ordering constraints; return the ``ord`` binaries
        keyed by operation pair, so a warm start can assign them."""
        ancestor_cache: Dict[str, set] = {}
        ordering: Dict[Tuple[str, str], Tuple[object, object]] = {}

        def ancestors(op_id: str) -> set:
            if op_id not in ancestor_cache:
                ancestor_cache[op_id] = graph.ancestors(op_id)
            return ancestor_cache[op_id]

        for idx, op_i in enumerate(operations):
            for op_j in operations[idx + 1 :]:
                i, j = op_i.op_id, op_j.op_id
                if i in ancestors(j) or j in ancestors(i):
                    continue  # precedence already orders the pair
                shared = [d for d in compatible[i] if d in compatible[j]]
                if not shared:
                    continue
                before = model.add_binary(f"ord[{i},{j}]")
                after = model.add_binary(f"ord[{j},{i}]")
                ordering[(i, j)] = (before, after)
                # i ends before j starts when `before` is set, and vice versa.
                model.add_constraint(
                    start[i] + durations[i] <= start[j] + big_m * (1 - before)
                )
                model.add_constraint(
                    start[j] + durations[j] <= start[i] + big_m * (1 - after)
                )
                # If both run on the same device (for any shared device k),
                # one of the two orderings must be chosen.
                for device in shared:
                    model.add_constraint(
                        before + after
                        >= assign[(i, device.device_id)] + assign[(j, device.device_id)] - 1
                    )
        return ordering

    # ------------------------------------------------------------ warm start
    def _build_warm_start(self, model, graph, warm_hint, operations, compatible,
                          device_edges, ordering, big_m) -> Optional[WarmStart]:
        """Translate schedules into full ILP assignments; keep the best that fits.

        Candidates are the external ``warm_hint`` (a neighboring
        configuration's solved schedule) and the self-seeded list-heuristic
        schedule.  Each is verified against ``model`` — every variable
        named, bounds, integrality, every row — and the lowest objective
        among those that fit wins.  A hint that does not translate or does
        not fit (one solved under another transport time, say) is dropped
        rather than displacing a valid one: the returned warm start also
        bounds ``tE``, so it must be feasible.
        """
        attempts = []
        if warm_hint is not None:
            attempts.append((warm_hint, "neighbor"))
        if self.config.warm_start_heuristic:
            attempts.append((self._heuristic_schedule(graph), "list-heuristic"))
        best: Optional[WarmStart] = None
        for hint, label in attempts:
            if hint is None:
                continue
            values = self._hint_values(hint, operations, compatible, device_edges,
                                       ordering, big_m)
            if values is None:
                continue
            objective = model.feasible_objective(values)
            if objective is not None and (best is None or objective < best.objective):
                best = WarmStart(values=values, objective=objective, label=label)
        return best

    def _heuristic_schedule(self, graph) -> Optional[Schedule]:
        from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig

        try:
            return ListScheduler(
                self.library,
                ListSchedulerConfig(
                    transport_time=self.config.transport_time,
                    storage_aware=bool(self.config.beta),
                ),
            ).schedule(graph)
        except Exception:
            # The heuristic is an optional accelerant; scheduling failures
            # (e.g. an exotic library it cannot serve) must not mask the
            # exact solve.
            return None

    def _hint_values(self, hint: Schedule, operations, compatible, device_edges,
                     ordering, big_m) -> Optional[Dict[str, float]]:
        """Values for *every* model variable, derived from a hint schedule.

        Start times and bindings come straight from the hint; the dependent
        variables (``both``/``same`` device indicators, ``ord`` orderings,
        storage gaps ``w``, completion ``tE``) are recomputed under the
        ILP's own semantics — in particular operation ends are ``start +
        duration`` even if the hint's device stretched the execution, so the
        assignment is judged exactly as the model would judge it.
        """
        start_t: Dict[str, int] = {}
        end_t: Dict[str, int] = {}
        dev: Dict[str, str] = {}
        values: Dict[str, float] = {}
        for op in operations:
            if op.op_id not in hint:
                return None
            entry = hint.entry(op.op_id)
            if entry.device_id is None:
                return None
            devices = compatible[op.op_id]
            if all(d.device_id != entry.device_id for d in devices):
                return None  # bound to a device this library lacks
            start_t[op.op_id] = int(entry.start)
            end_t[op.op_id] = int(entry.start) + int(op.duration)
            dev[op.op_id] = entry.device_id
            values[f"ts[{op.op_id}]"] = float(entry.start)
            for device in devices:
                values[f"s[{op.op_id},{device.device_id}]"] = float(
                    device.device_id == entry.device_id
                )
        values["tE"] = float(max(end_t.values(), default=0))
        for parent_id, child_id in device_edges:
            shared = [d for d in compatible[parent_id] if d in compatible[child_id]]
            same_val = 0.0
            for device in shared:
                both = float(
                    dev[parent_id] == device.device_id and dev[child_id] == device.device_id
                )
                values[f"both[{parent_id},{child_id},{device.device_id}]"] = both
                same_val += both
            if shared:
                values[f"same[{parent_id},{child_id}]"] = same_val
            gap = start_t[child_id] - end_t[parent_id]
            values[f"w[{parent_id},{child_id}]"] = float(max(0.0, gap - big_m * same_val))
        for (i, j), (before, after) in ordering.items():
            values[before.name] = float(end_t[i] <= start_t[j])
            values[after.name] = float(end_t[j] <= start_t[i])
        return values

    def _extract_schedule(self, graph, start, assign, compatible) -> Schedule:
        schedule = Schedule(graph, self.library, self.config.transport_time)
        for op in graph.device_operations():
            ts = int(round(start[op.op_id].solution))
            device_id = None
            for device in compatible[op.op_id]:
                if assign[(op.op_id, device.device_id)].as_bool():
                    device_id = device.device_id
                    break
            if device_id is None:
                raise RuntimeError(f"solver returned no binding for operation {op.op_id!r}")
            schedule.assign(op.op_id, device_id, ts, ts + op.duration)
        for op in graph.input_operations():
            schedule.assign(op.op_id, None, 0, op.duration)
        schedule.assert_valid()
        return schedule
