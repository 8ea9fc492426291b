"""Binding analysis: how operations map onto devices."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.scheduling.schedule import Schedule


@dataclass
class DeviceUsage:
    """Utilization summary of one device under a schedule."""

    device_id: str
    num_operations: int
    busy_time: int
    idle_time: int
    utilization: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.utilization <= 1.0 + 1e-9:
            raise ValueError("utilization must be within [0, 1]")


def device_utilization(schedule: Schedule) -> Dict[str, DeviceUsage]:
    """Per-device busy/idle accounting over the schedule's makespan."""
    makespan = schedule.makespan
    usage: Dict[str, DeviceUsage] = {}
    for device in schedule.library:
        entries = schedule.device_entries(device.device_id)
        busy = sum(e.duration for e in entries)
        idle = max(0, makespan - busy)
        utilization = (busy / makespan) if makespan > 0 else 0.0
        usage[device.device_id] = DeviceUsage(
            device_id=device.device_id,
            num_operations=len(entries),
            busy_time=busy,
            idle_time=idle,
            utilization=min(1.0, utilization),
        )
    return usage


def binding_summary(schedule: Schedule) -> List[str]:
    """Readable per-device binding report (used by examples and reports)."""
    lines: List[str] = []
    for device_id, usage in sorted(device_utilization(schedule).items()):
        ops = ", ".join(e.op_id for e in schedule.device_entries(device_id))
        lines.append(
            f"{device_id}: {usage.num_operations} ops, busy {usage.busy_time}s, "
            f"utilization {usage.utilization:.0%} [{ops}]"
        )
    return lines
