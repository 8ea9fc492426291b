"""Exact ILP scheduler (paper Section 3.1, Table 1, constraints (1)–(7)).

Formulation
-----------
For every device operation ``o_i``:

* integer start time ``ts_i`` (the end time is ``ts_i + duration_i``;
  constraint (2) is satisfied by construction),
* binary ``s_ik`` for every compatible device ``d_k`` with uniqueness
  constraint (1).

Precedence (3): for a sequencing-graph edge ``(o_i, o_j)`` between device
operations, ``ts_j >= te_i + u_c * (1 - same_ij)`` where ``same_ij`` is a
linearized AND over the per-device products ``s_ik * s_jk`` — the gap must
cover a transport unless both ends share the device.

Non-overlap (4): for every unordered pair of operations not related by
precedence, an ordering binary + big-M pair of constraints forces one to
finish before the other starts whenever both are bound to the same device.

Completion time (5): ``tE >= te_i``.

Objective (6): ``minimize alpha * tE + beta * sum w_ij`` where
``w_ij >= (ts_j - te_i) - M * same_ij`` captures the cross-device gap of each
edge (same-device edges contribute nothing, exactly as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.devices.device import DeviceLibrary
from repro.graph.analysis import critical_path_length
from repro.graph.sequencing_graph import SequencingGraph
from repro.ilp import (
    Model,
    SolverLimitError,
    SolverOptions,
    SolverStatus,
    WarmStart,
    lin_sum,
    linearize_and,
)
from repro.scheduling.schedule import Schedule


@dataclass
class IlpSchedulerConfig:
    """Configuration of the exact scheduler.

    ``alpha`` and ``beta`` are the objective weights of completion time and
    storage (gap) time; the paper gives completion time priority
    (``alpha >> beta``).  ``beta = 0`` reproduces the execution-time-only
    baseline of Fig. 9.

    ``solver``, when set, is used verbatim for the solve (it is how the flow
    threads :func:`repro.synthesis.config.solver_options_for` — the single
    ``FlowConfig`` → ``SolverOptions`` construction point — down to this
    engine, backend choice included).  When ``None`` the legacy fields
    ``time_limit_s``/``mip_rel_gap`` are assembled into options on the
    default backend, preserving the historical direct-construction API.
    """

    transport_time: int = 10
    alpha: float = 100.0
    beta: float = 1.0
    time_limit_s: Optional[float] = 60.0
    mip_rel_gap: Optional[float] = None
    horizon: Optional[int] = None
    solver: Optional[SolverOptions] = None
    #: Seed every solve with the storage-aware list heuristic's schedule
    #: translated into a full ILP assignment (a :class:`WarmStart`), unless
    #: the caller supplies an external hint.  Backends that cannot consume
    #: warm starts (HiGHS through scipy) simply ignore it; the
    #: branch-and-bound backend uses it to bound its search from node one.
    #: A warm start never changes the status or objective of a completed
    #: search; a time- or node-limited one can return another incumbent.
    warm_start_heuristic: bool = True

    def solver_options(self) -> SolverOptions:
        """The options every solve of this scheduler runs under."""
        if self.solver is not None:
            return self.solver
        return SolverOptions(time_limit_s=self.time_limit_s, mip_rel_gap=self.mip_rel_gap)


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
        RuntimeError
            If the solver proves infeasibility or returns no usable solution
            within the time limit.
        """
        cfg = self.config
        operations = graph.device_operations()
        if not operations:
            schedule = Schedule(graph, self.library, cfg.transport_time)
            return schedule

        compatible = self._compatible_devices(graph)
        horizon = cfg.horizon or self._default_horizon(graph)
        big_m = horizon + 1

        model = Model(f"schedule-{graph.name}")

        start: Dict[str, object] = {}
        end_expr: Dict[str, object] = {}
        assign: Dict[Tuple[str, str], object] = {}
        durations: Dict[str, int] = {}

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
            model.add_constraint(lin_sum(binaries) == 1, name=f"uniq[{op.op_id}]")

        # Same-device indicators for sequencing-graph edges (for precedence
        # slack and the storage objective term).
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
                both = linearize_and(
                    model,
                    f"both[{parent_id},{child_id},{device.device_id}]",
                    [assign[(parent_id, device.device_id)], assign[(child_id, device.device_id)]],
                )
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

        options = cfg.solver_options()
        warm = self._build_warm_start(
            graph, warm_hint, operations, compatible, device_edges, ordering, big_m
        )
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

        schedule = self._extract_schedule(graph, start, assign, compatible)
        schedule.solve = result.record()
        return schedule

    # ------------------------------------------------------------ internals
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
    def _build_warm_start(self, graph, warm_hint, operations, compatible,
                          device_edges, ordering, big_m) -> Optional[WarmStart]:
        """Translate a schedule into a full ILP assignment, best-effort.

        The external ``warm_hint`` (a neighboring configuration's solved
        schedule) wins over the self-seeded list-heuristic schedule; any
        failure to translate — missing operations, a device this library
        does not have — degrades to the heuristic seed (or no warm start)
        rather than an error.  The backend re-verifies the assignment
        against every constraint anyway, so a stale or ill-fitting hint can
        never corrupt a solve.
        """
        attempts = []
        if warm_hint is not None:
            attempts.append((warm_hint, "neighbor"))
        if self.config.warm_start_heuristic:
            attempts.append((self._heuristic_schedule(graph), "list-heuristic"))
        best: Optional[WarmStart] = None
        best_obj = float("inf")
        for hint, label in attempts:
            if hint is None:
                continue
            values = self._hint_values(hint, operations, compatible, device_edges,
                                       ordering, big_m)
            if values is None:
                continue
            # The model's objective over the assignment: both attempts may
            # translate, and the neighbor's schedule is not automatically
            # better than the self-seeded heuristic — keep whichever bounds
            # the search tighter.
            objective = self.config.alpha * values["tE"] + self.config.beta * sum(
                values[f"w[{p},{c}]"] for p, c in device_edges
            )
            if objective < best_obj:
                best = WarmStart(values=values, objective=objective, label=label)
                best_obj = objective
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
