"""Device insertion (step 2 of the physical design, dimension ``d_e``).

Devices are much larger than a grid node.  Inserting them stretches every
column and row that hosts a device by the device footprint, and shifts the
channel polylines accordingly so connectivity is preserved.
"""

from __future__ import annotations

from typing import Dict, List

from repro.archsyn.architecture import ChipArchitecture
from repro.devices.device import DeviceLibrary
from repro.physical.geometry import Point, Rect
from repro.physical.layout import ChannelShape, DeviceShape, PhysicalLayout


def insert_devices(
    layout: PhysicalLayout,
    architecture: ChipArchitecture,
    library: DeviceLibrary,
) -> PhysicalLayout:
    """Return a new layout with device rectangles inserted.

    Every canvas column (x coordinate) that hosts at least one device is
    widened by the widest device footprint in it minus one pitch slot, and
    analogously for rows.  Node positions and channel polylines are shifted
    to keep the topology; devices are drawn centered on their node.
    """
    if not layout.node_positions:
        return layout

    device_at_node: Dict[str, str] = {
        node: device for device, node in architecture.placement.items()
    }

    # Group coordinates.
    xs = sorted({p.x for p in layout.node_positions.values()})
    ys = sorted({p.y for p in layout.node_positions.values()})

    extra_width: Dict[float, float] = {x: 0.0 for x in xs}
    extra_height: Dict[float, float] = {y: 0.0 for y in ys}
    for node_id, position in layout.node_positions.items():
        device_id = device_at_node.get(node_id)
        if device_id is None or device_id not in library:
            continue
        width, height = library.device(device_id).footprint
        extra_width[position.x] = max(extra_width[position.x], max(0.0, width - 1.0))
        extra_height[position.y] = max(extra_height[position.y], max(0.0, height - 1.0))

    # Cumulative shifts: every coordinate moves right/up by the extra space
    # consumed by device columns/rows to its left/below.
    def shifted(value: float, extras: Dict[float, float], ordered: List[float]) -> float:
        shift = 0.0
        for coordinate in ordered:
            if coordinate < value:
                shift += extras[coordinate]
            elif coordinate == value:
                shift += extras[coordinate] / 2.0
        return value + shift

    new_positions = {
        node_id: Point(
            x=shifted(p.x, extra_width, xs),
            y=shifted(p.y, extra_height, ys),
        )
        for node_id, p in layout.node_positions.items()
    }

    new_channels: List[ChannelShape] = []
    for channel in layout.channels:
        a, b = sorted(channel.edge)
        new_channels.append(
            ChannelShape(
                edge=channel.edge,
                points=[new_positions[a], new_positions[b]],
                min_length=channel.min_length,
                is_storage=channel.is_storage,
                bends=channel.bends,
            )
        )

    devices: List[DeviceShape] = []
    for device_id, node_id in architecture.placement.items():
        if node_id not in new_positions:
            # A device with no used channel around it still occupies space.
            continue
        if device_id in library:
            width, height = library.device(device_id).footprint
        else:
            width, height = (2, 2)
        center = new_positions[node_id]
        devices.append(
            DeviceShape(
                device_id=device_id,
                node_id=node_id,
                rect=Rect(center.x - width / 2.0, center.y - height / 2.0, float(width), float(height)),
            )
        )

    return PhysicalLayout(
        devices=devices,
        channels=new_channels,
        node_positions=new_positions,
        pitch=layout.pitch,
    )
