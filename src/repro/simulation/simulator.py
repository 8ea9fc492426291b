"""Discrete replay of a synthesized chip."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.archsyn.architecture import ChipArchitecture
from repro.archsyn.grid import EdgeId
from repro.devices.channel import ChannelSegment
from repro.scheduling.schedule import Schedule
from repro.simulation.events import EventKind, SimulationEvent
from repro.simulation.snapshot import SegmentState, Snapshot


@dataclass
class SimulationResult:
    """Replay outcome: the event timeline plus per-resource statistics."""

    events: List[SimulationEvent]
    segments: Dict[EdgeId, ChannelSegment]
    makespan: int
    total_transports: int
    total_storage_intervals: int
    problems: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """True when the replay hit no resource conflicts (``problems`` empty)."""
        return not self.problems

    def segment_utilization(self) -> Dict[EdgeId, float]:
        """Busy-time fraction of each channel segment over the makespan."""
        if self.makespan <= 0:
            return {eid: 0.0 for eid in self.segments}
        return {
            eid: min(1.0, segment.busy_time() / self.makespan)
            for eid, segment in self.segments.items()
        }


class ChipSimulator:
    """Replays the schedule and routed transportation tasks of a chip."""

    def __init__(self, schedule: Schedule, architecture: ChipArchitecture) -> None:
        self.schedule = schedule
        self.architecture = architecture

    # ------------------------------------------------------------------ API
    def run(self) -> SimulationResult:
        """Replay everything; returns the event timeline and statistics.

        Channel segments enforce exclusive reservations themselves, so a
        double booking (which a valid synthesis never produces) is reported
        in ``problems`` rather than silently accepted.
        """
        events: List[SimulationEvent] = []
        problems: List[str] = []

        for entry in self.schedule.entries():
            if entry.device_id is None:
                continue
            events.append(SimulationEvent(entry.start, EventKind.OPERATION_START, entry.op_id, entry.device_id))
            events.append(SimulationEvent(entry.end, EventKind.OPERATION_END, entry.op_id, entry.device_id))

        segments: Dict[EdgeId, ChannelSegment] = {}
        for eid in self.architecture.used_edges():
            a, b = self.architecture.grid.edge_endpoints(eid)
            segments[eid] = ChannelSegment(segment_id=f"{a}--{b}", endpoints=(a, b))

        transports = 0
        storage_intervals = 0
        for routed in self.architecture.routed_tasks:
            task = routed.task
            for sub in routed.subpaths:
                start, end = sub.start, max(sub.end, sub.start + 1)
                label = "--".join(sorted(sub.edges[0])) if sub.edges else task.source_device
                if sub.purpose == "transport":
                    transports += 1
                    events.append(SimulationEvent(start, EventKind.TRANSPORT_START, task.task_id, label))
                    events.append(SimulationEvent(end, EventKind.TRANSPORT_END, task.task_id, label))
                else:
                    storage_intervals += 1
                    events.append(SimulationEvent(start, EventKind.STORAGE_START, task.task_id, label))
                    events.append(SimulationEvent(end, EventKind.STORAGE_END, task.task_id, label))
                for eid in sub.edges:
                    try:
                        segments[eid].reserve(start, end, sub.purpose, sample=task.sample)
                    except ValueError as exc:
                        problems.append(str(exc))

        events.sort()
        makespan = max(self.schedule.makespan, max((e.time for e in events), default=0))
        return SimulationResult(
            events=events,
            segments=segments,
            makespan=makespan,
            total_transports=transports,
            total_storage_intervals=storage_intervals,
            problems=problems,
        )

    def snapshot(self, time: int) -> Snapshot:
        """Chip state at one instant (the paper's Fig. 11 view)."""
        active_devices: Dict[str, str] = {}
        for entry in self.schedule.entries():
            if entry.device_id is not None and entry.start <= time < entry.end:
                active_devices[entry.device_id] = entry.op_id

        segment_states: Dict[EdgeId, SegmentState] = {}
        for routed in self.architecture.routed_tasks:
            for sub in routed.subpaths:
                if not (sub.start <= time < max(sub.end, sub.start + 1)):
                    continue
                for eid in sub.edges:
                    segment_states[eid] = SegmentState(
                        edge=eid,
                        purpose=sub.purpose,
                        task_id=routed.task.task_id,
                        sample_id=routed.task.sample.sample_id,
                    )
        return Snapshot(
            time=time,
            active_devices=active_devices,
            segments=segment_states,
            placement=dict(self.architecture.placement),
            grid_shape=self.architecture.grid.shape,
        )
