"""Schedule data model and validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph

T = TypeVar("T")


class ScheduleValidationError(ValueError):
    """Raised when a schedule violates a hard constraint."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems) if problems else "invalid schedule")


@dataclass(frozen=True)
class ScheduledOperation:
    """Assignment of one operation to a device and a time window.

    ``device_id`` is ``None`` for operations that need no device (inputs).
    """

    op_id: str
    device_id: Optional[str]
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"operation {self.op_id!r}: end {self.end} before start {self.start}")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "ScheduledOperation") -> bool:
        return self.start < other.end and other.start < self.end


class Schedule:
    """A complete schedule + binding for a sequencing graph.

    Parameters
    ----------
    graph:
        The assay being scheduled.
    library:
        The devices available; every device operation must be bound to one of
        them.
    transport_time:
        The constant pure device-to-device transport time ``u_c``.
    """

    def __init__(
        self,
        graph: SequencingGraph,
        library: DeviceLibrary,
        transport_time: int = 10,
    ) -> None:
        if transport_time < 0:
            raise ValueError("transport_time must be non-negative")
        self.graph = graph
        self.library = library
        self.transport_time = transport_time
        self._entries: Dict[str, ScheduledOperation] = {}
        #: The :class:`~repro.ilp.SolveRecord` of the exact solve that
        #: produced this schedule; ``None`` for the list scheduler.
        self.solve = None

    # -------------------------------------------------------------- building
    def assign(self, op_id: str, device_id: Optional[str], start: int, end: int) -> ScheduledOperation:
        """Record the (device, start, end) assignment of one operation."""
        if op_id not in self.graph:
            raise KeyError(f"operation {op_id!r} is not in graph {self.graph.name!r}")
        operation = self.graph.operation(op_id)
        if operation.needs_device:
            if device_id is None:
                raise ValueError(f"operation {op_id!r} needs a device")
            if device_id not in self.library:
                raise KeyError(f"unknown device {device_id!r}")
        entry = ScheduledOperation(op_id, device_id, start, end)
        self._entries[op_id] = entry
        self.__dict__.pop("_derived", None)
        return entry

    def derived(self, compute: Callable[["Schedule"], T]) -> T:
        """``compute(self)``, memoized on this schedule per function.

        For pure functions of the entries (the transport figures of
        :func:`~repro.synthesis.metrics.collect_metrics`): :meth:`assign`
        drops every memoized value, and pickling leaves them out, so a memo
        changes neither a schedule's envelope bytes nor its cache keys.
        """
        memo = self.__dict__.get("_derived")
        if memo is None:
            memo = self._derived = {}
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]

    def __getstate__(self) -> Dict[str, Any]:
        """The pickled state: every attribute but the memo."""
        state = self.__dict__
        if "_derived" in state:
            state = {k: v for k, v in state.items() if k != "_derived"}
        return state

    # --------------------------------------------------------------- queries
    def entry(self, op_id: str) -> ScheduledOperation:
        return self._entries[op_id]

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._entries

    def entries(self) -> List[ScheduledOperation]:
        return sorted(self._entries.values(), key=lambda e: (e.start, e.op_id))

    def device_entries(self, device_id: str) -> List[ScheduledOperation]:
        """Operations bound to a device, ordered by start time."""
        return sorted(
            (e for e in self._entries.values() if e.device_id == device_id),
            key=lambda e: e.start,
        )

    def devices_used(self) -> List[str]:
        return sorted({e.device_id for e in self._entries.values() if e.device_id is not None})

    @property
    def makespan(self) -> int:
        """Latest ending time of any operation — the paper's ``t_E``."""
        return max((e.end for e in self._entries.values()), default=0)

    def gap(self, parent_id: str, child_id: str) -> int:
        """Scheduled gap ``t_s(child) - t_e(parent)`` — the paper's ``u_ij``."""
        return self._entries[child_id].start - self._entries[parent_id].end

    def same_device(self, parent_id: str, child_id: str) -> bool:
        return (
            self._entries[parent_id].device_id is not None
            and self._entries[parent_id].device_id == self._entries[child_id].device_id
        )

    # ------------------------------------------------------------ validation
    def validate(self) -> List[str]:
        """Check all hard constraints; return a list of violations (empty = valid).

        Checks: completeness, device capability, duration, precedence with
        transport time, and device exclusivity (the paper's constraints
        (1)–(4)).
        """
        problems: List[str] = []

        for op in self.graph.device_operations():
            if op.op_id not in self._entries:
                problems.append(f"operation {op.op_id!r} is not scheduled")
        if problems:
            return problems

        for op in self.graph.device_operations():
            entry = self._entries[op.op_id]
            device = self.library.device(entry.device_id)
            if not device.supports(op.kind):
                problems.append(
                    f"operation {op.op_id!r} ({op.kind.value}) bound to incompatible device {device.device_id!r}"
                )
            required = device.execution_time(op.duration)
            if entry.duration < required:
                problems.append(
                    f"operation {op.op_id!r}: scheduled duration {entry.duration} < required {required}"
                )
            if entry.start < 0:
                problems.append(f"operation {op.op_id!r} starts before time 0")

        for parent_id, child_id in self.graph.edges():
            parent_op = self.graph.operation(parent_id)
            child_op = self.graph.operation(child_id)
            if not child_op.needs_device:
                continue
            if not parent_op.needs_device:
                # Inputs are available from time 0.
                continue
            if parent_id not in self._entries or child_id not in self._entries:
                continue
            gap = self.gap(parent_id, child_id)
            minimum = 0 if self.same_device(parent_id, child_id) else self.transport_time
            if gap < minimum:
                problems.append(
                    f"precedence violated on edge {parent_id!r}->{child_id!r}: gap {gap} < minimum {minimum}"
                )

        for device_id in self.devices_used():
            timeline = self.device_entries(device_id)
            for first, second in zip(timeline, timeline[1:]):
                if first.overlaps(second):
                    problems.append(
                        f"device {device_id!r}: operations {first.op_id!r} and {second.op_id!r} overlap "
                        f"([{first.start},{first.end}) vs [{second.start},{second.end}))"
                    )
        return problems

    def assert_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ScheduleValidationError(problems)

    # ------------------------------------------------------------- reporting
    def as_table(self) -> List[Tuple[str, str, int, int]]:
        """(op, device, start, end) rows sorted by start time, for reports."""
        return [(e.op_id, e.device_id or "-", e.start, e.end) for e in self.entries()]

    def __repr__(self) -> str:
        return (
            f"Schedule({self.graph.name!r}, {len(self._entries)} ops, "
            f"makespan={self.makespan})"
        )
