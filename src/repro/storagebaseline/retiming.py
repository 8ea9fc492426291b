"""Schedule retiming under a dedicated storage unit's port bandwidth.

The baseline keeps the binding and per-device operation order of the input
schedule, but every fluid sample that needs caching must now travel to the
dedicated storage unit and back.  All accesses share the unit's port(s); the
port services one access at a time, so simultaneous accesses queue and the
dependent operations start later — this is exactly the bandwidth bottleneck
the paper's distributed channel storage removes.

Timing model per stored sample (``u_c`` = transport time, ``t_a`` = port
access time):

* store: the sample leaves its producer at the producer's (new) end time,
  reaches the unit after ``u_c`` and then occupies a port for ``t_a``
  (possibly after queueing);
* fetch: when the consumer is otherwise ready, the sample is requested from
  the unit, occupies a port for ``t_a`` (possibly after queueing) and reaches
  the consumer's device after another ``u_c``.

Samples that do not need caching keep the direct device-to-device transport
of the original schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.devices.channel import FluidSample
from repro.devices.storage import DedicatedStorageUnit
from repro.scheduling.schedule import Schedule
from repro.scheduling.transport import TransportTask, extract_transport_tasks


@dataclass
class RetimedSchedule:
    """Result of the baseline replay."""

    schedule: Schedule
    makespan: int
    storage_unit: DedicatedStorageUnit
    start_times: Dict[str, int]
    end_times: Dict[str, int]
    total_queueing_delay: int
    stored_samples: int


class DedicatedStorageRetiming:
    """Replay a schedule against a dedicated storage unit."""

    def __init__(self, num_ports: int = 1, access_time: Optional[int] = None, num_cells: Optional[int] = None) -> None:
        self.num_ports = num_ports
        self.access_time = access_time
        self.num_cells = num_cells

    def retime(self, schedule: Schedule) -> RetimedSchedule:
        """Compute the prolonged execution under the dedicated-storage baseline."""
        uc = schedule.transport_time
        access_time = self.access_time if self.access_time is not None else max(1, uc)
        tasks = extract_transport_tasks(schedule)
        stored_tasks = {t.task_id: t for t in tasks if t.needs_storage}
        direct_tasks = {t.task_id: t for t in tasks if not t.needs_storage}

        # Size the unit to the schedule's own peak demand (the conventional
        # flow would do the same), with a generous floor of 4 cells.
        num_cells = self.num_cells
        if num_cells is None:
            num_cells = max(4, len(stored_tasks))
        unit = DedicatedStorageUnit(num_cells=num_cells, num_ports=self.num_ports, access_time=access_time)

        graph = schedule.graph
        new_start: Dict[str, int] = {}
        new_end: Dict[str, int] = {}
        device_free: Dict[str, int] = {d.device_id: 0 for d in schedule.library}
        store_complete: Dict[str, int] = {}

        # Process device operations in the order they start in the original
        # schedule (ties broken by id), preserving each device's op order.
        ordered = sorted(
            (schedule.entry(op.op_id) for op in graph.device_operations()),
            key=lambda e: (e.start, e.op_id),
        )

        for op in graph.input_operations():
            new_start[op.op_id] = 0
            new_end[op.op_id] = op.duration

        for entry in ordered:
            op_id = entry.op_id
            device_id = entry.device_id
            duration = entry.duration

            ready = device_free[device_id]
            pending_fetches: List[Tuple[str, TransportTask]] = []
            for parent_id in graph.predecessors(op_id):
                parent_op = graph.operation(parent_id)
                if not parent_op.needs_device:
                    ready = max(ready, new_end.get(parent_id, 0))
                    continue
                task_id = f"{parent_id}->{op_id}"
                if task_id in stored_tasks:
                    pending_fetches.append((parent_id, stored_tasks[task_id]))
                elif task_id in direct_tasks:
                    ready = max(ready, new_end[parent_id] + uc)
                else:
                    # Same-device hand-over: available as soon as the parent ends.
                    ready = max(ready, new_end[parent_id])

            # Fetch every cached input through the storage unit's port.
            for parent_id, task in pending_fetches:
                sample_id = task.sample.sample_id
                stored_at = store_complete.get(sample_id)
                if stored_at is None:
                    stored_at = self._store_sample(unit, task, new_end[parent_id], uc)
                    store_complete[sample_id] = stored_at
                fetch_request = max(ready - uc, stored_at)
                fetch_request = max(fetch_request, 0)
                access = unit.fetch(sample_id, fetch_request)
                ready = max(ready, access.finished_at + uc)

            start = ready
            end = start + duration
            new_start[op_id] = start
            new_end[op_id] = end
            device_free[device_id] = end

            # Store this operation's result immediately if any of its children
            # needs caching (store as early as possible, as the baseline does).
            for child_id in graph.successors(op_id):
                task_id = f"{op_id}->{child_id}"
                task = stored_tasks.get(task_id)
                if task is not None and task.sample.sample_id not in store_complete:
                    store_complete[task.sample.sample_id] = self._store_sample(unit, task, end, uc)

        makespan = max(new_end.values(), default=0)
        return RetimedSchedule(
            schedule=schedule,
            makespan=makespan,
            storage_unit=unit,
            start_times=new_start,
            end_times=new_end,
            total_queueing_delay=unit.total_queueing_delay(),
            stored_samples=len(store_complete),
        )

    @staticmethod
    def _store_sample(unit: DedicatedStorageUnit, task: TransportTask, producer_end: int, uc: int) -> int:
        sample = FluidSample(
            sample_id=task.sample.sample_id,
            producer=task.sample.producer,
            consumer=task.sample.consumer,
        )
        access = unit.store(sample, producer_end + uc)
        return access.finished_at
