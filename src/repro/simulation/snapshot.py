"""Chip-state snapshots (paper Fig. 11)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.archsyn.grid import EdgeId


@dataclass(frozen=True)
class SegmentState:
    """What a channel segment is doing at the snapshot instant."""

    edge: EdgeId
    purpose: str  # "transport" or "storage"
    task_id: str
    sample_id: str


@dataclass
class Snapshot:
    """State of the chip at one time instant."""

    time: int
    #: device id -> operation currently executing on it.
    active_devices: Dict[str, str]
    #: edge -> state, only for segments busy at this instant.
    segments: Dict[EdgeId, SegmentState]
    #: device id -> grid node id.
    placement: Dict[str, str]
    grid_shape: Tuple[int, int]

    def transporting_segments(self) -> List[SegmentState]:
        """Segments carrying a droplet at this instant."""
        return [s for s in self.segments.values() if s.purpose == "transport"]

    def storing_segments(self) -> List[SegmentState]:
        """Segments caching a stored sample at this instant."""
        return [s for s in self.segments.values() if s.purpose == "storage"]

    def busy_segment_count(self) -> int:
        """Number of segments busy (transporting or storing) right now."""
        return len(self.segments)

    def describe(self) -> List[str]:
        """Human-readable lines summarizing the snapshot."""
        lines = [f"t = {self.time}s"]
        for device, op in sorted(self.active_devices.items()):
            lines.append(f"  {device}: executing {op}")
        for state in sorted(self.segments.values(), key=lambda s: tuple(sorted(s.edge))):
            a, b = sorted(state.edge)
            verb = "caching" if state.purpose == "storage" else "transporting"
            lines.append(f"  segment {a}--{b}: {verb} sample {state.sample_id}")
        if len(lines) == 1:
            lines.append("  (idle)")
        return lines


def render_snapshot_ascii(snapshot: Snapshot) -> str:
    """Draw the connection grid with device/switch/segment states as ASCII art.

    Devices are drawn as ``[D]`` with an index, busy segments as ``=`` (when
    transporting) or ``#`` (when caching), idle grid positions as ``.``.
    """
    rows, cols = snapshot.grid_shape
    node_of_device = {node: device for device, node in snapshot.placement.items()}
    device_index = {device: idx + 1 for idx, device in enumerate(sorted(snapshot.placement))}

    def node_id(row: int, col: int) -> str:
        return f"n{row}_{col}"

    def segment_char(node_a: str, node_b: str) -> str:
        for state in snapshot.segments.values():
            if set(state.edge) == {node_a, node_b}:
                return "#" if state.purpose == "storage" else "="
        return " "

    lines: List[str] = []
    for row in range(rows):
        # Node row.
        cells: List[str] = []
        for col in range(cols):
            nid = node_id(row, col)
            if nid in node_of_device:
                cells.append(f"[{device_index[node_of_device[nid]]}]")
            else:
                cells.append(" . ")
            if col + 1 < cols:
                char = segment_char(nid, node_id(row, col + 1))
                cells.append(char * 3 if char != " " else "   ")
        lines.append("".join(cells))
        # Vertical-segment row.
        if row + 1 < rows:
            vcells: List[str] = []
            for col in range(cols):
                char = segment_char(node_id(row, col), node_id(row + 1, col))
                vcells.append(f" {char} " if char != " " else "   ")
                if col + 1 < cols:
                    vcells.append("   ")
            lines.append("".join(vcells))

    legend = [
        f"[{idx}] = {device}" for device, idx in sorted(device_index.items(), key=lambda kv: kv[1])
    ]
    lines.append("legend: " + ", ".join(legend) + "  (= transport, # storage)")
    lines.append(f"time: {snapshot.time}s")
    return "\n".join(lines)
