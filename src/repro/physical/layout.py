"""Physical layout data model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.archsyn.architecture import ChipArchitecture
from repro.archsyn.grid import EdgeId
from repro.physical.geometry import Point, Rect, bounding_box_of_points, polyline_length


@dataclass
class DeviceShape:
    """A device rectangle on the canvas."""

    device_id: str
    rect: Rect
    node_id: str


@dataclass
class ChannelShape:
    """A routed channel segment: a polyline with a required minimum length.

    ``min_length`` is non-zero for segments that cache a fluid sample; the
    compression stage must keep the polyline at least that long (inserting
    bends when the straight-line distance shrinks below it).
    """

    edge: EdgeId
    points: List[Point]
    min_length: float = 0.0
    is_storage: bool = False
    bends: int = 0
    #: Extra channel length contributed by serpentine bends.
    extra_length: float = 0.0

    @property
    def length(self) -> float:
        return polyline_length(self.points) + self.extra_length

    def length_deficit(self) -> float:
        """How much length is missing versus the storage requirement."""
        return max(0.0, self.min_length - self.length)


@dataclass
class PhysicalLayout:
    """Devices + channel segments on a canvas, with dimension accounting."""

    devices: List[DeviceShape] = field(default_factory=list)
    channels: List[ChannelShape] = field(default_factory=list)
    node_positions: Dict[str, Point] = field(default_factory=dict)
    #: Channel pitch (minimum spacing between parallel channels), layout units.
    pitch: float = 5.0

    # ------------------------------------------------------------- accessors
    def device(self, device_id: str) -> DeviceShape:
        for shape in self.devices:
            if shape.device_id == device_id:
                return shape
        raise KeyError(f"device {device_id!r} is not in the layout")

    def channel(self, edge: EdgeId) -> ChannelShape:
        for shape in self.channels:
            if shape.edge == edge:
                return shape
        raise KeyError(f"edge {sorted(edge)} is not in the layout")

    # ------------------------------------------------------------ dimensions
    def bounding_box(self) -> Rect:
        rects = [d.rect for d in self.devices]
        points = [p for c in self.channels for p in c.points]
        points.extend(self.node_positions.values())
        box_points = bounding_box_of_points(points)
        if rects:
            return Rect.bounding(rects + [box_points])
        return box_points

    def dimensions(self) -> Tuple[int, int]:
        """(width, height) of the layout, rounded up to whole layout units."""
        box = self.bounding_box()
        return (int(round(box.width)), int(round(box.height)))

    def area(self) -> float:
        box = self.bounding_box()
        return box.area

    # ------------------------------------------------------------ validation
    def validate(self) -> List[str]:
        """Check geometric sanity: device overlaps and storage-length deficits."""
        problems: List[str] = []
        for i, dev_a in enumerate(self.devices):
            for dev_b in self.devices[i + 1 :]:
                if dev_a.rect.intersects(dev_b.rect):
                    problems.append(
                        f"devices {dev_a.device_id!r} and {dev_b.device_id!r} overlap"
                    )
        for channel in self.channels:
            if channel.length_deficit() > 1e-6:
                problems.append(
                    f"storage segment {sorted(channel.edge)} is too short: "
                    f"{channel.length:.1f} < required {channel.min_length:.1f}"
                )
        return problems


def layout_from_architecture(
    architecture: ChipArchitecture,
    pitch: float = 5.0,
    storage_min_length: float = 3.0,
) -> PhysicalLayout:
    """Scale the architecture onto a canvas (step 1, dimension ``d_r``).

    Only *used* nodes and edges appear; unused grid resources have already
    been removed by architectural synthesis.  Each grid step spans one channel
    pitch.
    """
    layout = PhysicalLayout(pitch=pitch)
    used_nodes = architecture.used_nodes()
    if not used_nodes:
        return layout

    rows = sorted({architecture.grid.node(n).row for n in used_nodes})
    cols = sorted({architecture.grid.node(n).col for n in used_nodes})
    row_offset = {row: idx for idx, row in enumerate(rows)}
    col_offset = {col: idx for idx, col in enumerate(cols)}

    for node_id in sorted(used_nodes):
        node = architecture.grid.node(node_id)
        layout.node_positions[node_id] = Point(
            x=col_offset[node.col] * pitch,
            y=row_offset[node.row] * pitch,
        )

    storage_edges = {edge for edge, _window in architecture.storage_segments()}
    for eid in sorted(architecture.used_edges(), key=lambda e: tuple(sorted(e))):
        a, b = architecture.grid.edge_endpoints(eid)
        points = [layout.node_positions[a], layout.node_positions[b]]
        is_storage = eid in storage_edges
        layout.channels.append(
            ChannelShape(
                edge=eid,
                points=points,
                min_length=storage_min_length if is_storage else 0.0,
                is_storage=is_storage,
            )
        )
    return layout
