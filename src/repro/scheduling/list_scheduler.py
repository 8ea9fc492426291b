"""Storage-aware list scheduling heuristic.

The exact ILP of Section 3.1 does not scale to the largest assays within a
practical time budget (the paper caps Gurobi at 30 minutes and reports
best-effort results).  This module provides the deterministic heuristic used
for those instances: classic priority list scheduling, extended with the
paper's insight that the *order* in which ready operations are dispatched
determines how long intermediate products sit in storage.

Priority rules
--------------
* primary: critical-path length (longest downstream work first) — minimizes
  the makespan, as in standard list scheduling;
* storage-aware tie-break: among equally critical ready operations, prefer
  the one whose parents finished most recently, so fresh intermediate
  products are consumed quickly instead of lingering in storage (this is the
  o5-before-o3 choice in the paper's Fig. 2(c)).

Device choice: the compatible device that allows the earliest start; ties are
broken toward the device already holding one of the operation's parent
products (avoiding a transport altogether).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.scheduling.schedule import Schedule

#: A ready operation's dispatch terms:
#: ``(-priority, -freshness, ((device_id, start_floor, locality), ...))``.
ReadyRow = Tuple[int, int, Tuple[Tuple[str, int, int], ...]]


@dataclass
class ListSchedulerConfig:
    """Knobs of the heuristic scheduler.

    ``storage_aware`` disables the freshness tie-break when False, yielding
    the execution-time-only behaviour used as the Fig. 9 baseline.
    """

    transport_time: int = 10
    storage_aware: bool = True


class ListScheduler:
    """Deterministic storage-aware list scheduler."""

    def __init__(self, library: DeviceLibrary, config: Optional[ListSchedulerConfig] = None) -> None:
        if len(library) == 0:
            raise ValueError("the device library is empty")
        self.library = library
        self.config = config or ListSchedulerConfig()

    # ------------------------------------------------------------------ API
    def schedule(self, graph: SequencingGraph) -> Schedule:
        """Build and validate a schedule for ``graph``.

        The ready set is kept incrementally: an operation joins it when its
        last parent finishes, and at that moment — its parents' ends and
        devices being final — its per-device terms are computed once (see
        :meth:`_ready_row`).  Each dispatch then only combines those rows
        with the current ``device_free`` times.
        """
        cfg = self.config
        schedule = Schedule(graph, self.library, cfg.transport_time)

        priorities = self._downstream_priority(graph)
        predecessors = {
            op.op_id: tuple(graph.predecessors(op.op_id)) for op in graph.operations()
        }
        device_free = {device.device_id: 0 for device in self.library}
        finished: Dict[str, Tuple[int, Optional[str]]] = {}
        remaining = {op.op_id for op in graph.device_operations()}
        # Parents each remaining operation still waits for.
        waiting = {op_id: len(predecessors[op_id]) for op_id in remaining}
        ready: Dict[str, ReadyRow] = {}
        # The devices able to run each operation kind, memoized per run.
        kind_devices: Dict[object, list] = {}

        def finish(op_id: str, end: int, device_id: Optional[str]) -> None:
            finished[op_id] = (end, device_id)
            for child in graph.successors(op_id):
                if child in waiting:
                    waiting[child] -= 1
                    if waiting[child] == 0:
                        ready[child] = self._ready_row(
                            graph, child, priorities, predecessors, finished, kind_devices,
                        )

        for op in graph.input_operations():
            schedule.assign(op.op_id, None, 0, op.duration)
            finish(op.op_id, op.duration, None)
        for op_id in remaining:
            if not predecessors[op_id]:
                ready[op_id] = self._ready_row(
                    graph, op_id, priorities, predecessors, finished, kind_devices,
                )

        while remaining:
            if not ready:
                raise RuntimeError(
                    f"no ready operation among {sorted(remaining)}; the graph may be malformed"
                )
            op_id, device_id, start = self._pick_assignment(ready, device_free)
            op = graph.operation(op_id)
            device = self.library.device(device_id)
            duration = device.execution_time(op.duration)
            end = start + duration

            schedule.assign(op_id, device_id, start, end)
            device_free[device_id] = end
            del ready[op_id]
            remaining.remove(op_id)
            finish(op_id, end, device_id)

        schedule.assert_valid()
        return schedule

    # ------------------------------------------------------------ internals
    def _downstream_priority(self, graph: SequencingGraph) -> Dict[str, int]:
        """Length of the longest path from each operation to any sink."""
        priority: Dict[str, int] = {}
        for op_id in reversed(graph.topological_order()):
            op = graph.operation(op_id)
            children = graph.successors(op_id)
            downstream = max((priority[c] for c in children), default=0)
            priority[op_id] = op.duration + downstream
        return priority

    def _ready_row(
        self,
        graph: SequencingGraph,
        op_id: str,
        priorities: Dict[str, int],
        predecessors: Dict[str, Tuple[str, ...]],
        finished: Dict[str, Tuple[int, Optional[str]]],
        kind_devices: Dict[object, list],
    ) -> ReadyRow:
        """The dispatch terms of an operation whose parents have all finished.

        Per compatible device: the start floor its parents impose (each
        parent's end, plus one transport time unless the parent is an input
        or ran on that device) and its locality (0 when a parent's product
        already sits on the device).  Per operation: the negated critical-
        path priority and the negated freshness (the latest end among its
        device-bound parents).
        """
        op = graph.operation(op_id)
        candidates = kind_devices.get(op.kind)
        if candidates is None:
            candidates = kind_devices[op.kind] = self.library.devices_for(op.kind)
        if not candidates:
            raise RuntimeError(f"no device can execute operation {op_id!r} ({op.kind.value})")
        uc = self.config.transport_time
        parents = [finished[p] for p in predecessors[op_id]]
        parent_devices = {device for _, device in parents if device is not None}
        freshness = max((end for end, device in parents if device is not None), default=0)
        rows = []
        for device in candidates:
            device_id = device.device_id
            floor = 0
            for parent_end, parent_device in parents:
                hop = 0 if (parent_device is None or parent_device == device_id) else uc
                floor = max(floor, parent_end + hop)
            rows.append((device_id, floor, 0 if device_id in parent_devices else 1))
        return (-priorities[op_id], -freshness, tuple(rows))

    def _pick_assignment(
        self,
        ready: Dict[str, ReadyRow],
        device_free: Dict[str, int],
    ) -> Tuple[str, str, int]:
        """Pick the next (operation, device, start time) to dispatch.

        The selection is global over all (ready op, compatible device) pairs:
        the pair with the earliest possible start wins, which keeps every
        device busy and the makespan short (completion time has priority in
        the paper's objective).  Ties are broken by the longest downstream
        work (critical path), then — when storage awareness is on — by
        freshness of the parents' products and by locality (running on the
        parent's device avoids a transport and therefore a potential cache).
        Every tie-break ends on ``(op_id, device_id)``, so the choice is
        unique whatever order ``ready`` iterates in.
        """
        if not self.config.storage_aware:
            best = min(
                (max(device_free[device_id], floor), neg_priority, op_id, device_id)
                for op_id, (neg_priority, _, rows) in ready.items()
                for device_id, floor, _ in rows
            )
            return (best[2], best[3], best[0])

        # Storage-aware selection: losing up to one transport time of start
        # slack is acceptable if it lets the operation run on the device that
        # already holds its parent's product — no transport, no cached sample
        # (the Fig. 2(c) trade-off: slightly longer schedules, far less
        # storage and therefore fewer segments and valves).  Options are
        # ordered (locality, earliest, -priority, -freshness, op, device).
        options = [
            (locality, max(device_free[device_id], floor), neg_priority, neg_freshness,
             op_id, device_id)
            for op_id, (neg_priority, neg_freshness, rows) in ready.items()
            for device_id, floor, locality in rows
        ]
        limit = min(option[1] for option in options) + self.config.transport_time
        best = min(option for option in options if option[1] <= limit)
        return (best[4], best[5], best[1])
