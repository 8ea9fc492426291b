"""Heuristic architectural synthesis: placement + time-multiplexed routing.

The synthesizer realizes every transportation task of a schedule on a
connection grid:

1. devices are placed with :class:`~repro.archsyn.placement.GreedyPlacer`;
2. tasks are routed in order of departure time with a breadth-first search
   that only uses grid edges and switch nodes that are free during the task's
   time window (time multiplexing, constraint (10));
3. tasks that need storage are decomposed into the paper's three sub-paths:
   transport to a channel segment, caching in that segment, transport from
   the segment to the target device (Fig. 5(c)–(e) / Fig. 6); the storage
   segment is chosen close to the target device so the fetch is short
   ("on-the-spot caching").

Occupancy rules
---------------
* edges are exclusive: transport and storage reservations both block them;
* switch nodes are exclusive among transport paths; a caching segment does
  *not* block its endpoint nodes (the ``p'_r`` exemption of Fig. 6);
* device nodes are never used as intermediate hops of a foreign path; access
  to a device's own node is serialized by the schedule itself, so it is not
  tracked as a shared resource.

If routing fails on the configured grid the synthesizer retries on a larger
grid (the paper likewise sizes the grid per assay, Table 2 column ``G``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.archsyn.architecture import ChipArchitecture, RoutedSubPath, RoutedTask
from repro.archsyn.grid import ConnectionGrid, EdgeId, GridTables
from repro.archsyn.occupancy import OccupancyTracker
from repro.archsyn.placement import GreedyPlacer
from repro.keys import derive_seed
from repro.obs.trace import span as obs_span
from repro.scheduling.schedule import Schedule
from repro.scheduling.transport import TransportTask, extract_transport_tasks


class SynthesisError(RuntimeError):
    """Raised when no valid architecture could be synthesized."""


@dataclass
class SynthesisConfig:
    """Knobs of the heuristic synthesizer.

    ``grid_rows`` / ``grid_cols`` give the initial connection-grid size
    (Table 2 uses 4x4 for all assays except RA100's 5x5);
    ``auto_expand_grid`` lets the synthesizer retry on a larger grid when the
    initial one cannot accommodate all concurrent transportations.

    ``seed`` drives the tie-breaking among equal-cost routing choices.  The
    default ``0`` keeps the canonical lexicographic order (the order the
    golden regression pins were recorded with); any non-zero seed reorders
    ties via a SHA-derived per-node jitter (:func:`repro.keys.derive_seed`),
    which is bit-reproducible across worker processes — unlike anything
    touching Python's per-process ``hash()`` — so a seeded run is the same
    run no matter which process executes it.
    """

    grid_rows: int = 4
    grid_cols: int = 4
    auto_expand_grid: bool = True
    max_grid_dim: int = 9
    seed: int = 0


class RoutingState:
    """Everything one grid attempt's routing reads and updates.

    Built once per grid attempt, after placement, and passed to every
    routing helper:

    * the architecture under construction, its grid's static
      :class:`~repro.archsyn.grid.GridTables`, its device nodes and, per
      node, the device nodes next to it;
    * the edge and node occupancy of the tasks routed so far;
    * ``used_edges``, the segments earlier tasks already kept (reusing one
      costs nothing extra: objective (12) keeps few edges);
    * ``storage_orders``, the memoized static part of the storage-candidate
      order per ``(source, target)`` node pair
      (see :meth:`HeuristicSynthesizer._storage_candidates`).
    """

    def __init__(self, architecture: ChipArchitecture, transport_time: int) -> None:
        self.architecture = architecture
        self.tables: GridTables = architecture.grid.tables
        self.device_nodes: FrozenSet[str] = frozenset(architecture.placement.values())
        #: Node id -> the device nodes next to it (whose ports it touches).
        self.device_ports: Dict[str, Tuple[str, ...]] = {
            node: tuple(nb for nb, _ in pairs if nb in self.device_nodes)
            for node, pairs in self.tables.neighbours.items()
        }
        self.transport_time = transport_time
        self.edge_occ = OccupancyTracker()
        self.node_occ = OccupancyTracker()
        self.used_edges: Set[EdgeId] = set()
        self.storage_orders: Dict[Tuple[str, str], Tuple[List[EdgeId], List[EdgeId]]] = {}


class HeuristicSynthesizer:
    """Deterministic placement-and-routing engine."""

    def __init__(self, config: Optional[SynthesisConfig] = None) -> None:
        self.config = config or SynthesisConfig()
        # Node/edge names recur thousands of times across the router's inner
        # loops, so seeded ranks are hashed once per distinct name, not once
        # per heap push.
        self._tiebreak_cache: Dict[Tuple[str, ...], int] = {}

    def _tiebreak(self, *parts: str) -> int:
        """Seeded, process-independent tie-break rank for a node or edge.

        With the default ``seed == 0`` every rank is 0, so ties fall through
        to the lexicographic component that follows it in each sort key —
        byte-identical to the pre-seeded behavior the goldens pin.  A
        non-zero seed assigns each name a stable pseudo-random rank, giving
        sweeps a reproducible routing-diversity axis.
        """
        if not self.config.seed:
            return 0
        rank = self._tiebreak_cache.get(parts)
        if rank is None:
            rank = derive_seed(self.config.seed, "|".join(parts))
            self._tiebreak_cache[parts] = rank
        return rank

    # ------------------------------------------------------------------ API
    def synthesize(self, schedule: Schedule) -> ChipArchitecture:
        """Synthesize a validated :class:`ChipArchitecture` for ``schedule``.

        Raises
        ------
        SynthesisError
            If no conflict-free realization exists even on the largest grid
            allowed by the configuration.
        """
        tasks = extract_transport_tasks(schedule)
        devices = schedule.devices_used()
        if not devices:
            devices = [d.device_id for d in schedule.library]
        return self.synthesize_tasks(tasks, devices, transport_time=schedule.transport_time)

    def synthesize_tasks(
        self,
        tasks: Sequence[TransportTask],
        devices: Sequence[str],
        transport_time: int = 10,
    ) -> ChipArchitecture:
        """Synthesize an architecture directly from a list of transport tasks.

        This entry point is used by the dedicated-storage baseline, which
        rewrites the task list (all caching traffic is redirected to a storage
        unit pseudo-device) before synthesizing the comparison chip.
        """
        transport_time = max(1, transport_time)
        rows, cols = self.config.grid_rows, self.config.grid_cols
        while True:
            try:
                return self._synthesize_on_grid(tasks, devices, rows, cols, transport_time)
            except SynthesisError as exc:
                if not self.config.auto_expand_grid:
                    raise
                if rows >= self.config.max_grid_dim and cols >= self.config.max_grid_dim:
                    raise SynthesisError(
                        f"synthesis failed even on a {rows}x{cols} grid: {exc}"
                    ) from exc
                rows = min(self.config.max_grid_dim, rows + 1)
                cols = min(self.config.max_grid_dim, cols + 1)

    # ------------------------------------------------------------ internals
    def _synthesize_on_grid(
        self,
        tasks: Sequence[TransportTask],
        devices: Sequence[str],
        rows: int,
        cols: int,
        transport_time: int,
    ) -> ChipArchitecture:
        grid = ConnectionGrid(rows, cols)
        with obs_span("archsyn:place", category="archsyn", rows=rows, cols=cols,
                      ok=False) as place_span:
            if len(devices) > grid.num_nodes():
                raise SynthesisError(
                    f"{len(devices)} devices do not fit on a {rows}x{cols} connection grid"
                )
            placer = GreedyPlacer(grid)
            placement = placer.place(devices, tasks).placement
            architecture = ChipArchitecture(grid, placement)
            place_span.set(ok=True)

        with obs_span("archsyn:route", category="archsyn", rows=rows, cols=cols,
                      ok=False) as route_span:
            state = RoutingState(architecture, transport_time)
            for task in sorted(tasks, key=lambda t: (t.depart_time, t.task_id)):
                routed = self._route_task(task, state)
                architecture.add_routed_task(routed)
                state.used_edges.update(routed.all_edges())

            problems = architecture.validate()
            if problems:
                raise SynthesisError(
                    "synthesized architecture failed validation: " + "; ".join(problems[:5])
                )
            route_span.set(ok=True)
        return architecture

    # ----------------------------------------------------------- task routing
    def _route_task(self, task: TransportTask, state: RoutingState) -> RoutedTask:
        source = state.architecture.device_node(task.source_device)
        target = state.architecture.device_node(task.target_device)

        if not task.needs_storage:
            return self._route_direct(task, state, source, target)
        return self._route_with_storage(task, state, source, target)

    def _route_direct(
        self, task: TransportTask, state: RoutingState, source: str, target: str
    ) -> RoutedTask:
        window = (task.depart_time, max(task.arrive_time, task.depart_time + 1))
        group = task.sample.producer
        path = self._find_path(state, source, {target}, window, group=group)
        if path is None:
            raise SynthesisError(
                f"no conflict-free path for task {task.task_id!r} "
                f"({task.source_device}->{task.target_device}) in window {window}"
            )
        sub = self._commit_transport(state, path, window, task.task_id, group=group)
        return RoutedTask(task=task, subpaths=[sub])

    def _route_with_storage(
        self, task: TransportTask, state: RoutingState, source: str, target: str
    ) -> RoutedTask:
        depart, arrive = task.depart_time, task.arrive_time
        gap = arrive - depart
        if gap < 3:
            raise SynthesisError(
                f"task {task.task_id!r}: gap {gap} is too short to store a sample along the way"
            )
        uc = state.transport_time
        leg_out = min(uc, max(1, (gap - 1) // 2))
        leg_back = min(uc, max(1, gap - leg_out - 1))
        storage_start = depart + leg_out
        storage_end = arrive - leg_back
        if storage_end <= storage_start:
            storage_end = storage_start + 1
            leg_back = arrive - storage_end

        for eid in self._storage_candidates(state, source, target):
            routed = self._try_storage_edge(
                task, state, eid, source, target,
                depart, storage_start, storage_end, arrive,
            )
            if routed is not None:
                return routed
        raise SynthesisError(
            f"no channel segment can cache the sample of task {task.task_id!r} "
            f"between {task.source_device} and {task.target_device} "
            f"(window [{depart}, {arrive}))"
        )

    def _storage_candidates(
        self, state: RoutingState, source: str, target: str
    ) -> List[EdgeId]:
        """Candidate storage segments, nearest to the target device first.

        Segments between two switches are preferred over segments touching a
        device node: a sample parked directly on a device port would block
        that port for the whole caching interval and can wall the device in
        (the paper's Fig. 11 likewise caches between two switches).  Within
        each of those two classes, segments already kept by earlier tasks
        come first; then the order is distance to the target, distance to
        the source, the seeded tie-break rank and the endpoint names.

        Only the "already kept" term changes during a grid attempt, so the
        rest of the order is sorted once per ``(source, target)`` pair and
        each call just partitions it, stably, into kept and not-yet-kept.
        """
        classes = state.storage_orders.get((source, target))
        if classes is None:
            classes = state.storage_orders[(source, target)] = self._storage_order(
                state, source, target
            )
        used = state.used_edges
        ordered: List[EdgeId] = []
        for edges in classes:
            ordered.extend(eid for eid in edges if eid in used)
            ordered.extend(eid for eid in edges if eid not in used)
        return ordered

    def _storage_order(
        self, state: RoutingState, source: str, target: str
    ) -> Tuple[List[EdgeId], List[EdgeId]]:
        """The static part of :meth:`_storage_candidates`' order.

        Returns the segments between two switches and the segments touching
        one device, each sorted by ``(to_target, to_source, tiebreak,
        (a, b))``.  A segment whose both ends are devices cannot be sealed
        for storage without blocking both device ports, so it is left out.
        """
        coords = state.tables.coords
        device_nodes = state.device_nodes
        (tr, tc), (sr, sc) = coords[target], coords[source]
        keyed: Tuple[list, list] = ([], [])
        for eid, a, b in state.tables.edges:
            touches_a, touches_b = a in device_nodes, b in device_nodes
            if touches_a and touches_b:
                continue
            (ar, ac), (br, bc) = coords[a], coords[b]
            to_target = min(abs(ar - tr) + abs(ac - tc), abs(br - tr) + abs(bc - tc))
            to_source = min(abs(ar - sr) + abs(ac - sc), abs(br - sr) + abs(bc - sc))
            keyed[touches_a or touches_b].append(
                ((to_target, to_source, self._tiebreak(a, b), (a, b)), eid)
            )
        switch_only, touching = (
            [eid for _, eid in sorted(edges, key=lambda item: item[0])] for edges in keyed
        )
        return switch_only, touching

    def _try_storage_edge(
        self,
        task: TransportTask,
        state: RoutingState,
        eid: EdgeId,
        source: str,
        target: str,
        depart: int,
        storage_start: int,
        storage_end: int,
        arrive: int,
    ) -> Optional[RoutedTask]:
        node_a, node_b = state.architecture.grid.edge_endpoints(eid)
        group = task.sample.producer
        edge_occ, node_occ = state.edge_occ, state.node_occ
        # The storage edge must be exclusively available from the moment the
        # sample starts moving into it until it has fully left it.
        if not edge_occ.is_free(eid, depart, storage_end):
            return None

        for entry, exit_node in ((node_a, node_b), (node_b, node_a)):
            # The exit node is reserved together with leg 1 (the sample moves
            # into the segment), so it must be free during that window too.
            if exit_node not in state.device_nodes and not node_occ.is_free(
                exit_node, depart, storage_start, group=group
            ):
                continue
            # Leg 1: source device -> entry node, then into the storage edge.
            leg1_path = self._find_path(
                state, source, {entry}, (depart, storage_start),
                forbidden_edges={eid}, forbidden_nodes={exit_node}, group=group,
            )
            if leg1_path is None:
                continue
            # Leg 3: out of the storage edge at the far end -> target device.
            leg3_path = self._find_path(
                state, exit_node, {target}, (storage_end, arrive),
                forbidden_edges={eid}, group=group,
            )
            if leg3_path is None:
                continue

            full_leg1 = leg1_path + [exit_node]
            sub1 = self._commit_transport(
                state, full_leg1, (depart, storage_start), task.task_id, group=group,
            )
            edge_occ.reserve(eid, storage_start, storage_end, "storage", owner=task.task_id)
            sub2 = RoutedSubPath(
                nodes=(entry, exit_node),
                edges=(eid,),
                start=storage_start,
                end=storage_end,
                purpose="storage",
            )
            sub3 = self._commit_transport(
                state, leg3_path, (storage_end, arrive), task.task_id, group=group,
            )
            return RoutedTask(task=task, subpaths=[sub1, sub2, sub3])
        return None

    # -------------------------------------------------------------- pathfind
    def _find_path(
        self,
        state: RoutingState,
        source: str,
        targets: Set[str],
        window: Tuple[int, int],
        forbidden_edges: Set[EdgeId] = frozenset(),
        forbidden_nodes: Set[str] = frozenset(),
        group: str = "",
    ) -> Optional[List[str]]:
        """Shortest conflict-free path from ``source`` to any of ``targets``.

        Returns the node sequence or ``None``.  The ``window`` is half-open
        ``[start, end)``; an empty window is treated as one time unit.
        ``group`` identifies the producer whose split volumes may share
        resources with each other.
        """
        start, end = window
        if end <= start:
            end = start + 1
        device_nodes = state.device_nodes
        edge_free = state.edge_occ.is_free
        node_free = state.node_occ.is_free
        used_edges = state.used_edges
        neighbours = state.tables.neighbours
        device_ports = state.device_ports
        tiebreak = self._tiebreak

        # Switch nodes must be free; device nodes are serialized by the schedule.
        if source in forbidden_nodes or (
            source not in device_nodes and not node_free(source, start, end, group=group)
        ):
            return None
        if source in targets:
            return [source]

        # Dijkstra on (not-yet-used edges, foreign-port touches, hop count).
        # Reusing an already-kept channel segment costs nothing, so routes
        # concentrate on few segments (the heuristic counterpart of objective
        # (12)); hugging the ports of devices that are neither source nor
        # target is penalized so concurrent transports do not wall other
        # devices in.
        foreign_devices = device_nodes - set(targets) - {source}

        # Heap entries carry the seeded tie-break rank just before the node
        # name: with seed 0 the rank is uniformly 0 and selection falls back
        # to the name order (the pinned behavior); a non-zero seed explores
        # equal-cost frontiers in a reproducibly shuffled order.
        distance: Dict[str, Tuple[int, int, int]] = {source: (0, 0, 0)}
        parent: Dict[str, str] = {}
        heap: List[Tuple[int, int, int, int, str]] = [(0, 0, 0, tiebreak(source), source)]
        settled: Set[str] = set()
        while heap:
            new_edges, ports, hops, _rank, current = heapq.heappop(heap)
            if current in settled:
                continue
            settled.add(current)
            if current in targets:
                path = [current]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if current in device_nodes and current != source:
                continue  # never route through a foreign device
            for neighbour, eid in neighbours[current]:
                if neighbour in settled or neighbour in forbidden_nodes:
                    continue
                if eid in forbidden_edges:
                    continue
                if not edge_free(eid, start, end, group=group):
                    continue
                if neighbour in device_nodes:
                    if neighbour not in targets:
                        continue
                    touch = 0
                elif not node_free(neighbour, start, end, group=group):
                    continue
                elif neighbour in targets:
                    touch = 0
                else:
                    ports_here = device_ports[neighbour]
                    touch = sum(1 for nb in ports_here if nb in foreign_devices) if ports_here else 0
                cost = (
                    new_edges + (0 if eid in used_edges else 1),
                    ports + touch,
                    hops + 1,
                )
                if neighbour not in distance or cost < distance[neighbour]:
                    distance[neighbour] = cost
                    parent[neighbour] = current
                    heapq.heappush(
                        heap, (cost[0], cost[1], cost[2], tiebreak(neighbour), neighbour)
                    )
        return None

    def _commit_transport(
        self,
        state: RoutingState,
        path: List[str],
        window: Tuple[int, int],
        owner: str,
        group: str = "",
    ) -> RoutedSubPath:
        start, end = window
        if end <= start:
            end = start + 1
        edge_ids = state.tables.edge_ids
        edges = tuple(edge_ids[pair] for pair in zip(path, path[1:]))
        for eid in edges:
            state.edge_occ.reserve(eid, start, end, "transport", owner=owner, group=group)
        for node in path:
            if node not in state.device_nodes:
                state.node_occ.reserve(node, start, end, "transport", owner=owner, group=group)
        return RoutedSubPath(
            nodes=tuple(path),
            edges=edges,
            start=start,
            end=end,
            purpose="transport",
        )
