"""Exact architectural synthesis (paper Section 3.2, constraints (8)–(12)).

The formulation decides device placement and the routing of every
transportation task jointly and minimizes the number of connection-grid edges
kept in the chip.

Encoding notes
--------------
* Placement uses the paper's ``a_{i,k}`` binaries with constraint (8).
* The paper encodes path construction through node-degree constraints (9)
  with big-M indicators.  Here every transport leg is encoded as a *unit
  network flow* between its two (possibly variable) endpoints: one binary per
  directed grid arc with flow conservation at every node.  The two encodings
  admit the same simple paths, but the flow form guarantees connectivity (the
  degree form can be satisfied by a path plus disjoint cycles) and needs no
  big-M constants.
* A task that needs storage is decomposed into the paper's three sub-paths:
  leg 1 (device to storage segment), the storage segment itself (selected by
  binaries ``sigma_{r,e}``), and leg 3 (storage segment to target device).
* Conflicts (10): legs whose time windows overlap may not share an edge; two
  overlapping *transport* legs may not share a node unless that node hosts a
  device (the storage-endpoint/device-port exemption).  A caching segment
  blocks its edge for the whole task window.
* Objective (12): ``minimize sum_e s_e`` with ``s_e >= `` every usage
  indicator (constraint (11)).

The model grows quickly with task count; it is intended for the small/medium
instances (the heuristic engine covers the rest, exactly as the paper falls
back to best-effort results at its 30-minute cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.archsyn.architecture import ChipArchitecture, RoutedSubPath, RoutedTask
from repro.archsyn.grid import ConnectionGrid, EdgeId, edge_id
from repro.archsyn.router import SynthesisError
from repro.ilp import Model, SolverLimitError, SolverOptions, SolverStatus, lin_sum
from repro.scheduling.schedule import Schedule
from repro.scheduling.transport import TransportTask, extract_transport_tasks


class SynthesisLimitError(SynthesisError, SolverLimitError):
    """ILP synthesis hit its time limit with no incumbent.

    Both a :class:`SynthesisError` (existing fallback paths keep catching it)
    and a :class:`SolverLimitError` (the batch engine never memoizes it).
    """


@dataclass
class IlpSynthesisConfig:
    """Configuration of the exact synthesis engine.

    ``solver`` is used verbatim for the solve — the flow builds it through
    :func:`repro.synthesis.config.solver_options_for`, the single
    ``FlowConfig`` → ``SolverOptions`` construction point; by default a
    120 s limit on the default backend.
    """

    grid_rows: int = 3
    grid_cols: int = 3
    solver: SolverOptions = field(default_factory=lambda: SolverOptions(time_limit_s=120.0))


@dataclass
class _Leg:
    """One transport leg of a task in the ILP encoding."""

    leg_id: str
    task: TransportTask
    window: Tuple[int, int]
    kind: str  # "direct", "to_storage", "from_storage"


class IlpSynthesizer:
    """Joint placement + routing by integer linear programming."""

    def __init__(self, config: Optional[IlpSynthesisConfig] = None) -> None:
        self.config = config or IlpSynthesisConfig()

    # ------------------------------------------------------------------ API
    def synthesize(self, schedule: Schedule) -> ChipArchitecture:
        """Solve the synthesis ILP and return a validated architecture."""
        cfg = self.config
        tasks = extract_transport_tasks(schedule)
        devices = schedule.devices_used()
        if not devices:
            devices = [d.device_id for d in schedule.library]

        grid = ConnectionGrid(cfg.grid_rows, cfg.grid_cols)
        if len(devices) > grid.num_nodes():
            raise SynthesisError(
                f"{len(devices)} devices do not fit on a {cfg.grid_rows}x{cfg.grid_cols} grid"
            )

        uc = max(1, schedule.transport_time)
        legs, storage_windows = self._build_legs(tasks, uc)

        model = Model(f"archsyn-{schedule.graph.name}")
        arcs = self._directed_arcs(grid)
        nodes = grid.nodes()
        edges = grid.edges()

        place = self._placement_variables(model, grid, devices)
        flow, node_use, edge_use = self._flow_variables(model, grid, legs, arcs)
        sigma = self._storage_variables(model, grid, tasks)
        keep = {eid: model.add_binary(f"s[{'-'.join(sorted(eid))}]") for eid in edges}

        self._add_flow_conservation(model, grid, legs, flow, place, sigma, devices)
        self._add_usage_constraints(model, grid, legs, arcs, flow, node_use, edge_use, keep, sigma)
        self._add_device_blocking(model, grid, legs, node_use, place, devices)
        self._add_conflicts(model, grid, legs, edge_use, node_use, keep, sigma, storage_windows, place)

        model.minimize(lin_sum(keep.values()))
        result = model.solve(cfg.solver)
        if not result.status.is_feasible():
            message = f"ILP synthesis of {schedule.graph.name!r} failed: {result.status.value}"
            if result.status is SolverStatus.TIME_LIMIT:
                raise SynthesisLimitError(message)
            raise SynthesisError(message)

        placement = self._extract_placement(place, devices, grid)
        architecture = ChipArchitecture(grid, placement)
        architecture.solve = result.record()
        for task in tasks:
            routed = self._extract_routed_task(task, legs, flow, sigma, placement, grid, arcs)
            architecture.add_routed_task(routed)
        problems = architecture.validate()
        if problems:
            raise SynthesisError(
                "ILP synthesis produced an invalid architecture: " + "; ".join(problems[:5])
            )
        return architecture

    # ----------------------------------------------------------- model parts
    def _build_legs(
        self, tasks: Sequence[TransportTask], uc: int
    ) -> Tuple[List[_Leg], Dict[str, Tuple[int, int]]]:
        legs: List[_Leg] = []
        storage_windows: Dict[str, Tuple[int, int]] = {}
        for task in tasks:
            depart, arrive = task.depart_time, task.arrive_time
            if not task.needs_storage:
                window = (depart, max(arrive, depart + 1))
                legs.append(_Leg(f"{task.task_id}#direct", task, window, "direct"))
                continue
            gap = arrive - depart
            leg_out = min(uc, max(1, (gap - 1) // 2))
            leg_back = min(uc, max(1, gap - leg_out - 1))
            storage_start = depart + leg_out
            storage_end = max(storage_start + 1, arrive - leg_back)
            storage_windows[task.task_id] = (storage_start, storage_end)
            legs.append(_Leg(f"{task.task_id}#to", task, (depart, storage_start), "to_storage"))
            legs.append(_Leg(f"{task.task_id}#from", task, (storage_end, arrive), "from_storage"))
        return legs, storage_windows

    def _directed_arcs(self, grid: ConnectionGrid) -> List[Tuple[str, str]]:
        arcs: List[Tuple[str, str]] = []
        for eid in grid.edges():
            a, b = grid.edge_endpoints(eid)
            arcs.append((a, b))
            arcs.append((b, a))
        return arcs

    def _placement_variables(self, model: Model, grid: ConnectionGrid, devices: Sequence[str]):
        place: Dict[Tuple[str, str], object] = {}
        for node in grid.nodes():
            for device in devices:
                place[(node, device)] = model.add_binary(f"a[{node},{device}]")
        for node in grid.nodes():
            model.add_constraint(
                lin_sum(place[(node, d)] for d in devices) <= 1, name=f"one-device[{node}]"
            )
        for device in devices:
            model.add_constraint(
                lin_sum(place[(n, device)] for n in grid.nodes()) == 1, name=f"placed[{device}]"
            )
        return place

    def _flow_variables(self, model: Model, grid: ConnectionGrid, legs: List[_Leg], arcs):
        flow: Dict[Tuple[str, str, str], object] = {}
        node_use: Dict[Tuple[str, str], object] = {}
        edge_use: Dict[Tuple[str, EdgeId], object] = {}
        for leg in legs:
            for (a, b) in arcs:
                flow[(leg.leg_id, a, b)] = model.add_binary(f"f[{leg.leg_id},{a},{b}]")
            for node in grid.nodes():
                node_use[(leg.leg_id, node)] = model.add_binary(f"nu[{leg.leg_id},{node}]")
            for eid in grid.edges():
                edge_use[(leg.leg_id, eid)] = model.add_binary(
                    f"eu[{leg.leg_id},{'-'.join(sorted(eid))}]"
                )
        return flow, node_use, edge_use

    def _storage_variables(self, model: Model, grid: ConnectionGrid, tasks: Sequence[TransportTask]):
        sigma: Dict[Tuple[str, EdgeId], object] = {}
        for task in tasks:
            if not task.needs_storage:
                continue
            edge_vars = []
            for eid in grid.edges():
                var = model.add_binary(f"sigma[{task.task_id},{'-'.join(sorted(eid))}]")
                sigma[(task.task_id, eid)] = var
                edge_vars.append(var)
            model.add_constraint(lin_sum(edge_vars) == 1, name=f"one-storage[{task.task_id}]")
        return sigma

    def _add_flow_conservation(self, model, grid, legs, flow, place, sigma, devices):
        for leg in legs:
            task = leg.task
            for node in grid.nodes():
                outflow = lin_sum(
                    flow[(leg.leg_id, node, other)] for other in grid.neighbors(node)
                )
                inflow = lin_sum(
                    flow[(leg.leg_id, other, node)] for other in grid.neighbors(node)
                )
                incident_sigma = lin_sum(
                    sigma[(task.task_id, eid)] for eid in grid.incident_edges(node)
                    if (task.task_id, eid) in sigma
                )
                if leg.kind == "direct":
                    supply = place[(node, task.source_device)] - place[(node, task.target_device)]
                elif leg.kind == "to_storage":
                    # Source: the device node; sink: any endpoint of the
                    # chosen storage segment.  Allowing the net outflow to be
                    # "source minus up to one storage endpoint" keeps the leg
                    # a single simple path that ends at the segment.
                    supply = place[(node, task.source_device)] - incident_sigma
                    model.add_constraint(outflow - inflow >= supply)
                    model.add_constraint(
                        outflow - inflow <= place[(node, task.source_device)]
                    )
                    continue
                else:  # from_storage
                    supply = incident_sigma - place[(node, task.target_device)]
                    model.add_constraint(outflow - inflow <= supply + 0)
                    model.add_constraint(
                        outflow - inflow >= 0 - place[(node, task.target_device)]
                    )
                    continue
                model.add_constraint(outflow - inflow == supply)

    def _add_usage_constraints(self, model, grid, legs, arcs, flow, node_use, edge_use, keep, sigma):
        for leg in legs:
            for eid in grid.edges():
                a, b = grid.edge_endpoints(eid)
                forward = flow[(leg.leg_id, a, b)]
                backward = flow[(leg.leg_id, b, a)]
                use = edge_use[(leg.leg_id, eid)]
                model.add_constraint(forward + backward <= 1)
                model.add_constraint(use >= forward)
                model.add_constraint(use >= backward)
                model.add_constraint(use <= forward + backward)
                model.add_constraint(keep[eid] >= use)
            for node in grid.nodes():
                nu = node_use[(leg.leg_id, node)]
                for other in grid.neighbors(node):
                    model.add_constraint(nu >= flow[(leg.leg_id, node, other)])
                    model.add_constraint(nu >= flow[(leg.leg_id, other, node)])
        for (task_id, eid), var in sigma.items():
            model.add_constraint(keep[eid] >= var)

    def _add_device_blocking(self, model, grid, legs, node_use, place, devices):
        for leg in legs:
            task = leg.task
            endpoint_devices = {task.source_device, task.target_device}
            for device in devices:
                if device in endpoint_devices:
                    continue
                for node in grid.nodes():
                    model.add_constraint(
                        node_use[(leg.leg_id, node)] + place[(node, device)] <= 1
                    )

    def _add_conflicts(self, model, grid, legs, edge_use, node_use, keep, sigma, storage_windows, place):
        devices_at_node = {
            node: lin_sum(place[(node, d)] for d in self._placement_devices(place, node))
            for node in grid.nodes()
        }
        # Leg-versus-leg conflicts.
        for i, leg_a in enumerate(legs):
            for leg_b in legs[i + 1 :]:
                if leg_a.task.task_id == leg_b.task.task_id:
                    continue
                if not self._windows_overlap(leg_a.window, leg_b.window):
                    continue
                for eid in grid.edges():
                    model.add_constraint(
                        edge_use[(leg_a.leg_id, eid)] + edge_use[(leg_b.leg_id, eid)] <= 1
                    )
                for node in grid.nodes():
                    model.add_constraint(
                        node_use[(leg_a.leg_id, node)] + node_use[(leg_b.leg_id, node)]
                        <= 1 + devices_at_node[node]
                    )
        # Storage-segment-versus-leg conflicts: a caching segment blocks its
        # edge for the task's whole window (conservative but always safe).
        for (task_id, eid), sigma_var in sigma.items():
            window = storage_windows[task_id]
            task_window = self._task_window_of(legs, task_id)
            for leg in legs:
                if leg.task.task_id == task_id:
                    continue
                if not self._windows_overlap(task_window, leg.window):
                    continue
                model.add_constraint(edge_use[(leg.leg_id, eid)] + sigma_var <= 1)
        # Storage-segment-versus-storage-segment conflicts.
        storage_tasks = sorted({task_id for (task_id, _e) in sigma})
        for i, task_a in enumerate(storage_tasks):
            for task_b in storage_tasks[i + 1 :]:
                if not self._windows_overlap(
                    self._task_window_of(legs, task_a), self._task_window_of(legs, task_b)
                ):
                    continue
                for eid in grid.edges():
                    model.add_constraint(sigma[(task_a, eid)] + sigma[(task_b, eid)] <= 1)

    @staticmethod
    def _placement_devices(place, node) -> List[str]:
        return sorted({device for (n, device) in place.keys() if n == node})

    @staticmethod
    def _windows_overlap(win_a: Tuple[int, int], win_b: Tuple[int, int]) -> bool:
        return win_a[0] < win_b[1] and win_b[0] < win_a[1]

    @staticmethod
    def _task_window_of(legs: List[_Leg], task_id: str) -> Tuple[int, int]:
        windows = [leg.window for leg in legs if leg.task.task_id == task_id]
        return (min(w[0] for w in windows), max(w[1] for w in windows))

    # ------------------------------------------------------------ extraction
    def _extract_placement(self, place, devices, grid) -> Dict[str, str]:
        placement: Dict[str, str] = {}
        for device in devices:
            for node in grid.nodes():
                if place[(node, device)].as_bool():
                    placement[device] = node
                    break
            if device not in placement:
                raise SynthesisError(f"solver returned no placement for device {device!r}")
        return placement

    def _extract_routed_task(self, task, legs, flow, sigma, placement, grid, arcs) -> RoutedTask:
        task_legs = [leg for leg in legs if leg.task.task_id == task.task_id]
        subpaths: List[RoutedSubPath] = []

        storage_edge: Optional[EdgeId] = None
        if task.needs_storage:
            for eid in grid.edges():
                if sigma[(task.task_id, eid)].as_bool():
                    storage_edge = eid
                    break
            if storage_edge is None:
                raise SynthesisError(f"no storage segment selected for task {task.task_id!r}")

        for leg in task_legs:
            if leg.kind in ("direct", "to_storage"):
                start_node = placement[task.source_device]
            else:
                start_node = self._storage_exit_node(leg, flow, storage_edge, grid, placement, task)
            path = self._follow_flow(leg, flow, grid, start_node)
            if leg.kind == "to_storage" and storage_edge is not None:
                entry = path[-1]
                exit_node = next(n for n in grid.edge_endpoints(storage_edge) if n != entry)
                if entry not in grid.edge_endpoints(storage_edge):
                    raise SynthesisError(
                        f"leg {leg.leg_id!r} does not end at the storage segment"
                    )
                full_nodes = path + [exit_node]
                edges = tuple(edge_id(a, b) for a, b in zip(full_nodes, full_nodes[1:]))
                subpaths.append(
                    RoutedSubPath(tuple(full_nodes), edges, leg.window[0], leg.window[1], "transport")
                )
                storage_window = self._storage_window(task, legs)
                subpaths.append(
                    RoutedSubPath(
                        (entry, exit_node), (storage_edge,),
                        storage_window[0], storage_window[1], "storage",
                    )
                )
            else:
                edges = tuple(edge_id(a, b) for a, b in zip(path, path[1:]))
                subpaths.append(
                    RoutedSubPath(tuple(path), edges, leg.window[0], leg.window[1], "transport")
                )
        return RoutedTask(task=task, subpaths=subpaths)

    def _storage_window(self, task, legs) -> Tuple[int, int]:
        to_leg = next(l for l in legs if l.task.task_id == task.task_id and l.kind == "to_storage")
        from_leg = next(l for l in legs if l.task.task_id == task.task_id and l.kind == "from_storage")
        return (to_leg.window[1], from_leg.window[0])

    def _storage_exit_node(self, leg, flow, storage_edge, grid, placement, task) -> str:
        """The endpoint of the storage segment where the from-storage leg starts."""
        candidates = grid.edge_endpoints(storage_edge)
        for node in candidates:
            outflow = sum(
                1 for other in grid.neighbors(node) if flow[(leg.leg_id, node, other)].as_bool()
            )
            inflow = sum(
                1 for other in grid.neighbors(node) if flow[(leg.leg_id, other, node)].as_bool()
            )
            if outflow - inflow > 0:
                return node
        # Zero-length leg: the storage segment touches the target device node.
        target_node = placement[task.target_device]
        if target_node in candidates:
            return target_node
        return candidates[0]

    def _follow_flow(self, leg, flow, grid, start_node: str) -> List[str]:
        """Follow the unit flow of a leg from its start node to its sink."""
        path = [start_node]
        current = start_node
        visited_arcs: Set[Tuple[str, str]] = set()
        for _ in range(grid.num_nodes() * 2):
            next_node = None
            for other in sorted(grid.neighbors(current)):
                arc = (current, other)
                if arc in visited_arcs:
                    continue
                if flow[(leg.leg_id, current, other)].as_bool():
                    next_node = other
                    visited_arcs.add(arc)
                    break
            if next_node is None:
                break
            path.append(next_node)
            current = next_node
        return path
