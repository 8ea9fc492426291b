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
from typing import Dict, List, Optional, Tuple

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.scheduling.schedule import Schedule


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
        """Build and validate a schedule for ``graph``."""
        cfg = self.config
        schedule = Schedule(graph, self.library, cfg.transport_time)

        priorities = self._downstream_priority(graph)
        predecessors = {
            op.op_id: tuple(graph.predecessors(op.op_id)) for op in graph.operations()
        }
        device_free = {device.device_id: 0 for device in self.library}
        finished: Dict[str, Tuple[int, Optional[str]]] = {}
        remaining = {op.op_id for op in graph.device_operations()}
        # The devices able to run each operation kind, memoized per run.
        kind_devices: Dict[object, list] = {}

        for op in graph.input_operations():
            schedule.assign(op.op_id, None, 0, op.duration)
            finished[op.op_id] = (op.duration, None)

        while remaining:
            ready = [
                op_id
                for op_id in remaining
                if all(parent in finished for parent in predecessors[op_id])
            ]
            if not ready:
                raise RuntimeError(
                    f"no ready operation among {sorted(remaining)}; the graph may be malformed"
                )
            op_id, device_id, start = self._pick_assignment(
                graph, ready, priorities, predecessors, finished, device_free,
                kind_devices,
            )
            op = graph.operation(op_id)
            device = self.library.device(device_id)
            duration = device.execution_time(op.duration)
            end = start + duration

            schedule.assign(op_id, device_id, start, end)
            device_free[device_id] = end
            finished[op_id] = (end, device_id)
            remaining.remove(op_id)

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

    def _pick_assignment(
        self,
        graph: SequencingGraph,
        ready: List[str],
        priorities: Dict[str, int],
        predecessors: Dict[str, Tuple[str, ...]],
        finished: Dict[str, Tuple[int, Optional[str]]],
        device_free: Dict[str, int],
        kind_devices: Dict[object, list],
    ) -> Tuple[str, str, int]:
        """Pick the next (operation, device, start time) to dispatch.

        The selection is global over all (ready op, compatible device) pairs:
        the pair with the earliest possible start wins, which keeps every
        device busy and the makespan short (completion time has priority in
        the paper's objective).  Ties are broken by the longest downstream
        work (critical path), then — when storage awareness is on — by
        freshness of the parents' products and by locality (running on the
        parent's device avoids a transport and therefore a potential cache).
        """
        uc = self.config.transport_time

        def freshness(op_id: str) -> int:
            parent_ends = [
                finished[p][0]
                for p in predecessors[op_id]
                if finished[p][1] is not None
            ]
            return max(parent_ends, default=0)

        options: List[Tuple[int, int, int, int, str, str]] = []
        for op_id in ready:
            op = graph.operation(op_id)
            candidates = kind_devices.get(op.kind)
            if candidates is None:
                candidates = kind_devices[op.kind] = self.library.devices_for(op.kind)
            if not candidates:
                raise RuntimeError(f"no device can execute operation {op_id!r} ({op.kind.value})")
            parent_devices = {
                finished[p][1] for p in predecessors[op_id] if finished[p][1] is not None
            }
            for device in candidates:
                earliest = device_free[device.device_id]
                for parent in predecessors[op_id]:
                    parent_end, parent_device = finished[parent]
                    hop = 0 if (parent_device is None or parent_device == device.device_id) else uc
                    earliest = max(earliest, parent_end + hop)
                locality = 0 if device.device_id in parent_devices else 1
                options.append(
                    (earliest, locality, -priorities[op_id], -freshness(op_id), op_id, device.device_id)
                )

        if not self.config.storage_aware:
            best = min(options, key=lambda o: (o[0], o[2], o[4], o[5]))
            return (best[4], best[5], best[0])

        # Storage-aware selection: losing up to one transport time of start
        # slack is acceptable if it lets the operation run on the device that
        # already holds its parent's product — no transport, no cached sample
        # (the Fig. 2(c) trade-off: slightly longer schedules, far less
        # storage and therefore fewer segments and valves).
        t_star = min(option[0] for option in options)
        window = [o for o in options if o[0] <= t_star + uc]
        best = min(window, key=lambda o: (o[1], o[0], o[2], o[3], o[4], o[5]))
        return (best[4], best[5], best[0])
