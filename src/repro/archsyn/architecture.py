"""The synthesized chip architecture (planar connection graph).

A :class:`ChipArchitecture` is the output of architectural synthesis: the
device placement on the connection grid, the set of grid edges kept as
channel segments, and the routed realization (with time windows) of every
transportation task of the schedule, including where each intermediate fluid
sample is cached.

It also owns the resource accounting used throughout the evaluation:

* ``num_edges`` — channel segments kept (the paper's ``n_e``),
* ``num_valves`` — one valve per (kept edge, switch node) incidence; device
  ports and mixer-internal valves are excluded, matching the paper's ``n_v``,
* edge / valve ratios versus the full connection grid (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.archsyn.grid import ConnectionGrid, EdgeId
from repro.scheduling.transport import TransportTask


class ArchitectureValidationError(ValueError):
    """Raised when a synthesized architecture violates a hard constraint."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems) if problems else "invalid architecture")


@dataclass(frozen=True)
class RoutedSubPath:
    """One leg of a routed transportation task.

    ``purpose`` is ``"transport"`` for a moving leg (the fluid traverses
    ``nodes``/``edges`` during ``[start, end)``) or ``"storage"`` for the
    caching leg (exactly one edge, no movement).
    """

    nodes: Tuple[str, ...]
    edges: Tuple[EdgeId, ...]
    start: int
    end: int
    purpose: str

    def __post_init__(self) -> None:
        if self.purpose not in ("transport", "storage"):
            raise ValueError(f"unknown sub-path purpose {self.purpose!r}")
        if self.end < self.start:
            raise ValueError("sub-path ends before it starts")
        if self.purpose == "storage" and len(self.edges) != 1:
            raise ValueError("a storage sub-path must consist of exactly one edge")
        if self.purpose == "transport" and len(self.nodes) != len(self.edges) + 1:
            raise ValueError("a transport sub-path must have len(nodes) == len(edges) + 1")

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class RoutedTask:
    """A transportation task together with its routed realization."""

    task: TransportTask
    subpaths: List[RoutedSubPath]

    @property
    def storage_edge(self) -> Optional[EdgeId]:
        for sub in self.subpaths:
            if sub.purpose == "storage":
                return sub.edges[0]
        return None

    @property
    def storage_window(self) -> Optional[Tuple[int, int]]:
        for sub in self.subpaths:
            if sub.purpose == "storage":
                return (sub.start, sub.end)
        return None

    def all_edges(self) -> Set[EdgeId]:
        edges: Set[EdgeId] = set()
        for sub in self.subpaths:
            edges.update(sub.edges)
        return edges


class ChipArchitecture:
    """Placement + kept channel segments + routed transportation tasks."""

    def __init__(
        self,
        grid: ConnectionGrid,
        placement: Dict[str, str],
        routed_tasks: Optional[Sequence[RoutedTask]] = None,
    ) -> None:
        self.grid = grid
        #: Mapping device id -> grid node id.
        self.placement = dict(placement)
        self.routed_tasks: List[RoutedTask] = list(routed_tasks or [])
        #: The :class:`~repro.ilp.SolveRecord` of the exact solve that
        #: produced this architecture; ``None`` for the heuristic router.
        self.solve = None
        self._validate_placement()

    def _validate_placement(self) -> None:
        seen: Dict[str, str] = {}
        for device_id, node_id in self.placement.items():
            if node_id not in self.grid:
                raise ArchitectureValidationError(
                    [f"device {device_id!r} placed on unknown node {node_id!r}"]
                )
            if node_id in seen:
                raise ArchitectureValidationError(
                    [f"devices {seen[node_id]!r} and {device_id!r} share node {node_id!r}"]
                )
            seen[node_id] = device_id

    # --------------------------------------------------------------- queries
    def device_node(self, device_id: str) -> str:
        return self.placement[device_id]

    def device_nodes(self) -> Set[str]:
        return set(self.placement.values())

    def add_routed_task(self, routed: RoutedTask) -> None:
        self.routed_tasks.append(routed)

    # ------------------------------------------------------------ accounting
    def used_edges(self) -> Set[EdgeId]:
        """Grid edges used by at least one transport or storage sub-path.

        These are the channel segments kept in the chip (objective (12));
        all other grid edges are removed.
        """
        edges: Set[EdgeId] = set()
        for routed in self.routed_tasks:
            edges.update(routed.all_edges())
        return edges

    def used_nodes(self) -> Set[str]:
        nodes: Set[str] = set(self.placement.values())
        for eid in self.used_edges():
            nodes.update(self.grid.edge_endpoints(eid))
        return nodes

    @property
    def num_edges(self) -> int:
        """The paper's ``n_e``: number of channel segments kept."""
        return len(self.used_edges())

    @property
    def num_valves(self) -> int:
        """The paper's ``n_v``: one valve per (kept edge, switch node) incidence."""
        device_nodes = self.device_nodes()
        valves = 0
        for eid in self.used_edges():
            for endpoint in self.grid.edge_endpoints(eid):
                if endpoint not in device_nodes:
                    valves += 1
        return valves

    def grid_edge_count(self) -> int:
        return self.grid.num_edges()

    def grid_valve_count(self) -> int:
        """Valves the *full* connection grid would need (denominator of Fig. 8)."""
        device_nodes = self.device_nodes()
        valves = 0
        for eid in self.grid.edges():
            for endpoint in self.grid.edge_endpoints(eid):
                if endpoint not in device_nodes:
                    valves += 1
        return valves

    def edge_ratio(self) -> float:
        """Used edges / grid edges (Fig. 8, 'Edge' series)."""
        total = self.grid_edge_count()
        return self.num_edges / total if total else 0.0

    def valve_ratio(self) -> float:
        """Used valves / grid valves (Fig. 8, 'Valve' series)."""
        total = self.grid_valve_count()
        return self.num_valves / total if total else 0.0

    def storage_segments(self) -> List[Tuple[EdgeId, Tuple[int, int]]]:
        """Every (edge, window) that caches a fluid sample."""
        segments = []
        for routed in self.routed_tasks:
            edge = routed.storage_edge
            window = routed.storage_window
            if edge is not None and window is not None:
                segments.append((edge, window))
        return segments

    # ------------------------------------------------------------ validation
    def validate(self) -> List[str]:
        """Check structural and time-multiplexing correctness.

        Rules enforced (constraint (10) and path well-formedness):

        * every transport sub-path is a connected path over existing grid
          edges, starting/ending at the correct device nodes or at the
          storage segment;
        * transport sub-paths never pass *through* a node occupied by an
          unrelated device;
        * two sub-paths whose time windows overlap never share an edge;
        * two *transport* sub-paths whose time windows overlap never share a
          node (storage segments only block their edge, not their endpoints).
        """
        problems: List[str] = []
        device_nodes = self.device_nodes()

        for routed in self.routed_tasks:
            problems.extend(self._validate_task_structure(routed, device_nodes))

        flat: List[Tuple[RoutedSubPath, str, str]] = []
        for routed in self.routed_tasks:
            for sub in routed.subpaths:
                flat.append((sub, routed.task.task_id, routed.task.sample.producer))

        for idx, (sub_a, owner_a, producer_a) in enumerate(flat):
            for sub_b, owner_b, producer_b in flat[idx + 1 :]:
                if owner_a == owner_b:
                    continue
                if not (sub_a.start < sub_b.end and sub_b.start < sub_a.end):
                    continue
                both_transport = sub_a.purpose == "transport" and sub_b.purpose == "transport"
                # Volumes split from the same producer travel together, so
                # their transport legs may legitimately share resources.
                same_split_product = both_transport and producer_a == producer_b
                shared_edges = set(sub_a.edges) & set(sub_b.edges)
                if shared_edges and not same_split_product:
                    problems.append(
                        f"tasks {owner_a!r} and {owner_b!r} share edge(s) "
                        f"{sorted(tuple(sorted(e)) for e in shared_edges)} while both are live"
                    )
                if both_transport and not same_split_product:
                    # Device nodes are exempt: access to a device port is
                    # serialized by the schedule itself (see router docstring).
                    shared_nodes = (set(sub_a.nodes) & set(sub_b.nodes)) - device_nodes
                    if shared_nodes:
                        problems.append(
                            f"transport paths of {owner_a!r} and {owner_b!r} intersect at node(s) "
                            f"{sorted(shared_nodes)} while both are live"
                        )
        return problems

    def _validate_task_structure(self, routed: RoutedTask, device_nodes: Set[str]) -> List[str]:
        problems: List[str] = []
        task = routed.task
        source_node = self.placement.get(task.source_device)
        target_node = self.placement.get(task.target_device)
        if source_node is None or target_node is None:
            problems.append(f"task {task.task_id!r}: source or target device is not placed")
            return problems
        transports = [s for s in routed.subpaths if s.purpose == "transport"]
        if not transports:
            problems.append(f"task {task.task_id!r} has no transport sub-path")
            return problems
        if transports[0].nodes[0] != source_node:
            problems.append(
                f"task {task.task_id!r}: first sub-path starts at {transports[0].nodes[0]!r}, "
                f"not at source device node {source_node!r}"
            )
        if transports[-1].nodes[-1] != target_node:
            problems.append(
                f"task {task.task_id!r}: last sub-path ends at {transports[-1].nodes[-1]!r}, "
                f"not at target device node {target_node!r}"
            )
        allowed_devices = {source_node, target_node}
        for sub in routed.subpaths:
            for node_a, node_b in zip(sub.nodes, sub.nodes[1:]):
                if not self.grid.has_edge(node_a, node_b):
                    problems.append(
                        f"task {task.task_id!r}: {node_a!r}-{node_b!r} is not a grid edge"
                    )
            if sub.purpose == "transport":
                for node in sub.nodes[1:-1]:
                    if node in device_nodes and node not in allowed_devices:
                        problems.append(
                            f"task {task.task_id!r}: transport path passes through device node {node!r}"
                        )
        if task.needs_storage and routed.storage_edge is None:
            problems.append(f"task {task.task_id!r} needs storage but no storage sub-path was routed")
        return problems

    def assert_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ArchitectureValidationError(problems)

    def __repr__(self) -> str:
        return (
            f"ChipArchitecture(grid={self.grid.rows}x{self.grid.cols}, "
            f"{len(self.placement)} devices, {len(self.routed_tasks)} tasks, "
            f"n_e={self.num_edges}, n_v={self.num_valves})"
        )
