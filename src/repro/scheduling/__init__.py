"""Scheduling and binding with storage minimization (paper Section 3.1).

Given a sequencing graph and a device library, the scheduler assigns every
device operation a device (*binding*) and a start time (*scheduling*) such
that precedence, device-exclusivity and transport-time constraints hold.  The
paper's key point is that the *choice* of schedule determines how many
intermediate fluid samples must be stored and for how long, so the objective
co-minimizes the assay completion time ``t_E`` and the total cross-device
gap time (objective (6)).

Two engines are provided:

* :class:`~repro.scheduling.ilp_scheduler.IlpScheduler` — the exact ILP of
  Table 1 / constraints (1)–(7), solved with the in-repo HiGHS backend;
* :class:`~repro.scheduling.list_scheduler.ListScheduler` — a deterministic
  storage-aware list-scheduling heuristic for instances beyond the ILP's
  practical size (mirroring the paper's 30-minute best-effort cap).

The execution-time-only baseline of Fig. 9 is either engine with the
storage term off: ``ListSchedulerConfig(storage_aware=False)`` or
``IlpSchedulerConfig(beta=0.0)``, which is what
``FlowConfig(storage_aware=False)`` builds.
"""

from repro.scheduling.schedule import Schedule, ScheduledOperation, ScheduleValidationError
from repro.scheduling.transport import (
    StorageRequirement,
    TransportTask,
    extract_transport_tasks,
    storage_requirements,
    peak_storage_demand,
)
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.scheduling.binding import binding_summary, device_utilization, DeviceUsage

__all__ = [
    "Schedule",
    "ScheduledOperation",
    "ScheduleValidationError",
    "StorageRequirement",
    "TransportTask",
    "extract_transport_tasks",
    "storage_requirements",
    "peak_storage_demand",
    "IlpScheduler",
    "IlpSchedulerConfig",
    "ListScheduler",
    "ListSchedulerConfig",
    "binding_summary",
    "device_utilization",
    "DeviceUsage",
]
