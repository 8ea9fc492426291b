"""Core sequencing-graph data model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple


class OperationType(enum.Enum):
    """Kind of a bioassay operation.

    ``INPUT`` nodes model sample/reagent dispensing (the ``i1..i8`` leaves in
    the paper's Fig. 2(a)); they need no device and take a fixed dispense
    time.  All other kinds execute on a device (mixer, heater, detector).
    """

    INPUT = "input"
    MIX = "mix"
    DILUTE = "dilute"
    HEAT = "heat"
    DETECT = "detect"
    WASH = "wash"
    OUTPUT = "output"

    @property
    def needs_device(self) -> bool:
        return self not in (OperationType.INPUT, OperationType.OUTPUT)


@dataclass
class Operation:
    """A single node of the sequencing graph.

    Parameters
    ----------
    op_id:
        Unique string identifier (``"o1"``, ``"i3"`` ...).
    kind:
        The :class:`OperationType`.
    duration:
        Execution time in seconds on its device (0 for inputs by default).
    label:
        Optional human readable description.
    """

    op_id: str
    kind: OperationType = OperationType.MIX
    duration: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"operation {self.op_id!r}: duration must be non-negative")

    @property
    def needs_device(self) -> bool:
        return self.kind.needs_device

    def __hash__(self) -> int:
        return hash(self.op_id)

    def __repr__(self) -> str:
        return f"Operation({self.op_id!r}, {self.kind.value}, {self.duration}s)"


class SequencingGraph:
    """Directed acyclic graph of assay operations.

    Edges ``(parent, child)`` mean the child consumes the fluid produced by
    the parent; the child therefore cannot start before the parent ends plus
    the transport (and possibly storage) time — the paper's precedence
    constraint (3).
    """

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._operations: Dict[str, Operation] = {}
        self._successors: Dict[str, List[str]] = {}
        self._predecessors: Dict[str, List[str]] = {}

    # ------------------------------------------------------------- building
    def add_operation(self, operation: Operation) -> Operation:
        if operation.op_id in self._operations:
            raise ValueError(f"duplicate operation id {operation.op_id!r}")
        self._operations[operation.op_id] = operation
        self._successors[operation.op_id] = []
        self._predecessors[operation.op_id] = []
        return operation

    def add_mix(self, op_id: str, duration: int, label: str = "") -> Operation:
        return self.add_operation(Operation(op_id, OperationType.MIX, duration, label))

    def add_input(self, op_id: str, duration: int = 0, label: str = "") -> Operation:
        return self.add_operation(Operation(op_id, OperationType.INPUT, duration, label))

    def add_edge(self, parent_id: str, child_id: str) -> None:
        if parent_id not in self._operations:
            raise KeyError(f"unknown parent operation {parent_id!r}")
        if child_id not in self._operations:
            raise KeyError(f"unknown child operation {child_id!r}")
        if parent_id == child_id:
            raise ValueError(f"self-loop on {parent_id!r} is not allowed")
        if child_id in self._successors[parent_id]:
            return
        if self._would_create_cycle(parent_id, child_id):
            raise ValueError(f"edge {parent_id!r}->{child_id!r} would create a cycle")
        self._successors[parent_id].append(child_id)
        self._predecessors[child_id].append(parent_id)

    def _would_create_cycle(self, parent_id: str, child_id: str) -> bool:
        # A cycle appears iff parent is reachable from child.
        stack = [child_id]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == parent_id:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return False

    # -------------------------------------------------------------- queries
    def operation(self, op_id: str) -> Operation:
        return self._operations[op_id]

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._operations.values())

    def device_operations(self) -> List[Operation]:
        """Operations that must be bound to a device (the paper's set ``O``)."""
        return [op for op in self._operations.values() if op.needs_device]

    def input_operations(self) -> List[Operation]:
        return [op for op in self._operations.values() if op.kind is OperationType.INPUT]

    def successors(self, op_id: str) -> List[str]:
        return list(self._successors[op_id])

    def predecessors(self, op_id: str) -> List[str]:
        return list(self._predecessors[op_id])

    def edges(self) -> List[Tuple[str, str]]:
        return [(p, c) for p, children in self._successors.items() for c in children]

    def device_edges(self) -> List[Tuple[str, str]]:
        """Edges between two device-bound operations (candidates for fluid transport)."""
        return [
            (p, c)
            for p, c in self.edges()
            if self._operations[p].needs_device and self._operations[c].needs_device
        ]

    def roots(self) -> List[str]:
        return [op_id for op_id in self._operations if not self._predecessors[op_id]]

    def in_degree(self, op_id: str) -> int:
        return len(self._predecessors[op_id])

    # ------------------------------------------------------------ traversal
    def topological_order(self) -> List[str]:
        """Kahn topological order of all operation ids."""
        in_deg = {op_id: len(parents) for op_id, parents in self._predecessors.items()}
        ready = [op_id for op_id, deg in in_deg.items() if deg == 0]
        order: List[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self._successors[node]:
                in_deg[child] -= 1
                if in_deg[child] == 0:
                    ready.append(child)
        if len(order) != len(self._operations):
            raise ValueError(f"sequencing graph {self.name!r} contains a cycle")
        return order

    def ancestors(self, op_id: str) -> Set[str]:
        result: Set[str] = set()
        stack = list(self._predecessors[op_id])
        while stack:
            node = stack.pop()
            if node in result:
                continue
            result.add(node)
            stack.extend(self._predecessors[node])
        return result

    # ----------------------------------------------------------- statistics
    def copy(self) -> "SequencingGraph":
        clone = SequencingGraph(name=self.name)
        for op in self._operations.values():
            clone.add_operation(Operation(op.op_id, op.kind, op.duration, op.label))
        for parent, child in self.edges():
            clone.add_edge(parent, child)
        return clone

    def __repr__(self) -> str:
        return (
            f"SequencingGraph({self.name!r}, {len(self)} operations, "
            f"{len(self.edges())} edges)"
        )
