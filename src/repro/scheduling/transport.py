"""Transport tasks and storage requirements derived from a schedule.

After scheduling, every cross-device sequencing-graph edge becomes a
*transportation task*: the parent's product must travel from the parent's
device to the child's device inside the scheduled gap.  When the gap exceeds
the pure transport time ``u_c``, the fluid must be cached somewhere for the
remainder — in a channel segment in the proposed architecture, or in the
dedicated storage unit in the baseline.

Same-device edges normally need no transport (the product stays inside the
device), *except* when another operation uses the device in between — then
the product must be evicted, cached and brought back.  The paper's ILP
objective ignores this case (it only sums cross-device gaps) but the
architectural synthesis must still realize these round trips, so the task
extraction here handles both.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.devices.channel import FluidSample
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class TransportTask:
    """One fluid movement required by the schedule.

    Attributes
    ----------
    task_id:
        Unique id, ``"<parent>-><child>"``.
    sample:
        The fluid sample being moved.
    source_device / target_device:
        Devices of the parent and child operations (equal for evictions).
    depart_time:
        When the sample leaves the source device (= parent end time).
    arrive_time:
        When the sample must be inside the target device (= child start time).
    needs_storage:
        True when the sample must be cached along the way.
    storage_duration:
        Time the sample spends cached (0 when ``needs_storage`` is False).
    """

    task_id: str
    sample: FluidSample
    source_device: str
    target_device: str
    depart_time: int
    arrive_time: int
    needs_storage: bool
    storage_duration: int

    def __post_init__(self) -> None:
        if self.arrive_time < self.depart_time:
            raise ValueError(f"task {self.task_id}: arrives before it departs")
        if self.storage_duration < 0:
            raise ValueError(f"task {self.task_id}: negative storage duration")

    @property
    def window(self) -> Tuple[int, int]:
        return (self.depart_time, self.arrive_time)

    @property
    def duration(self) -> int:
        return self.arrive_time - self.depart_time


@dataclass(frozen=True)
class StorageRequirement:
    """A fluid sample that must be cached during ``[start, end)``."""

    sample: FluidSample
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "StorageRequirement") -> bool:
        return self.start < other.end and other.start < self.end


def _device_timelines(schedule: Schedule) -> Dict[str, Tuple[List[int], List[int]]]:
    """Per device: its operations' start times in order, and the running
    maximum of their end times (``max_ends[i]`` covers ``starts[:i + 1]``)."""
    timelines: Dict[str, Tuple[List[int], List[int]]] = {}
    for entry in schedule.entries():
        if entry.device_id is None:
            continue
        starts, max_ends = timelines.setdefault(entry.device_id, ([], []))
        starts.append(entry.start)
        max_ends.append(max(entry.end, max_ends[-1]) if max_ends else entry.end)
    return timelines


def extract_transport_tasks(schedule: Schedule) -> List[TransportTask]:
    """Derive all transportation tasks implied by a schedule.

    Rules (``u_c`` = ``schedule.transport_time``):

    * cross-device edge: one task with window ``[parent.end, child.start]``;
      storage is needed when the window exceeds ``u_c`` and lasts
      ``gap - u_c``;
    * same-device edge with an intervening operation on that device: an
      eviction task (source == target); the cache time is the part of the gap
      not spent on the two transports;
    * same-device edge without intervening work: no task (the product waits
      inside the device).

    An operation intervenes exactly when it starts before ``child.start``
    and ends after ``parent.end``.  Neither endpoint can pass that test
    itself, so one bisection into the device's start-sorted timeline and
    one comparison against the running maximum end time decide it.
    """
    uc = schedule.transport_time
    timelines = _device_timelines(schedule)
    tasks: List[TransportTask] = []
    for parent_id, child_id in schedule.graph.device_edges():
        if parent_id not in schedule or child_id not in schedule:
            continue
        parent = schedule.entry(parent_id)
        child = schedule.entry(child_id)
        gap = child.start - parent.end
        sample = FluidSample(
            sample_id=f"{parent_id}->{child_id}",
            producer=parent_id,
            consumer=child_id,
        )
        if parent.device_id != child.device_id:
            needs_storage = gap > uc
            storage_duration = max(0, gap - uc)
            tasks.append(
                TransportTask(
                    task_id=f"{parent_id}->{child_id}",
                    sample=sample,
                    source_device=parent.device_id,
                    target_device=child.device_id,
                    depart_time=parent.end,
                    arrive_time=child.start,
                    needs_storage=needs_storage,
                    storage_duration=storage_duration,
                )
            )
        elif gap > 0:
            device_id = parent.device_id
            starts, max_ends = timelines[device_id]
            before = bisect_left(starts, child.start)
            if before and max_ends[before - 1] > parent.end:
                transports = min(gap, 2 * uc)
                tasks.append(
                    TransportTask(
                        task_id=f"{parent_id}->{child_id}",
                        sample=sample,
                        source_device=device_id,
                        target_device=device_id,
                        depart_time=parent.end,
                        arrive_time=child.start,
                        needs_storage=True,
                        storage_duration=max(0, gap - transports),
                    )
                )
    return sorted(tasks, key=lambda t: (t.depart_time, t.task_id))


def requirements_of(tasks: List[TransportTask], transport_time: int) -> List[StorageRequirement]:
    """Storage intervals of the caching tasks among ``tasks``, in task order.

    The cache window starts once the sample has been transported away from
    its producer (``depart + u_c``) and ends when it must start moving toward
    its consumer (``arrive - u_c``), clamped to a non-empty sensible window
    for short gaps.
    """
    requirements: List[StorageRequirement] = []
    for task in tasks:
        if not task.needs_storage:
            continue
        start = task.depart_time + min(transport_time, task.duration // 2)
        end = max(start, task.arrive_time - min(transport_time, task.duration // 2))
        if end == start:
            end = start + 1  # zero-length cache still occupies a cell/segment briefly
        requirements.append(StorageRequirement(sample=task.sample, start=start, end=end))
    return requirements


def peak_of(requirements: List[StorageRequirement]) -> int:
    """Maximum number of ``requirements`` cached at the same time."""
    events: List[Tuple[int, int]] = []
    for req in requirements:
        events.append((req.start, 1))
        events.append((req.end, -1))
    events.sort(key=lambda item: (item[0], item[1]))
    peak = current = 0
    for _, delta in events:
        current += delta
        peak = max(peak, current)
    return peak


def storage_requirements(schedule: Schedule) -> List[StorageRequirement]:
    """Storage intervals implied by the schedule (one per caching task)."""
    return requirements_of(extract_transport_tasks(schedule), schedule.transport_time)


def peak_storage_demand(schedule: Schedule) -> int:
    """Maximum number of samples stored simultaneously.

    This is the capacity a dedicated storage unit would need for this
    schedule (the "required storage capacity" of the paper's Fig. 2), and the
    number of channel segments that must be simultaneously devoted to caching
    in the distributed architecture.
    """
    return peak_of(storage_requirements(schedule))


def total_storage_time(schedule: Schedule) -> int:
    """Sum of all cache durations — the quantity the paper's objective (6) minimizes."""
    return sum(req.duration for req in storage_requirements(schedule))


def cross_device_gap_sum(schedule: Schedule) -> int:
    """The paper's objective term ``sum u_ij`` over cross-device edges."""
    total = 0
    for parent_id, child_id in schedule.graph.device_edges():
        if parent_id in schedule and child_id in schedule and not schedule.same_device(parent_id, child_id):
            total += schedule.gap(parent_id, child_id)
    return total
