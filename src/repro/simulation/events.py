"""Timeline events produced by the chip simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    """What a timeline event marks: an operation, transport, or storage edge."""

    OPERATION_START = "operation_start"
    OPERATION_END = "operation_end"
    TRANSPORT_START = "transport_start"
    TRANSPORT_END = "transport_end"
    STORAGE_START = "storage_start"
    STORAGE_END = "storage_end"


@dataclass(frozen=True)
class SimulationEvent:
    """One timeline event.

    ``subject`` is the operation id for operation events and the task id for
    transport/storage events; ``location`` is the device id or the channel
    segment (sorted endpoint pair) involved.
    """

    time: int
    kind: EventKind
    subject: str
    location: str

    def __lt__(self, other: "SimulationEvent") -> bool:
        return (self.time, self.kind.value, self.subject) < (other.time, other.kind.value, other.subject)
