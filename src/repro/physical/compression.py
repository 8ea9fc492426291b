"""Iterative layout compression (step 3 of the physical design, ``d_p``).

Following the paper's Fig. 7, the expanded layout is compressed one unit at a
time, alternating between the horizontal and vertical dimension.  A
compression step uniformly scales the coordinate being compressed; it is
accepted only while all constraints still hold:

* adjacent parallel channels keep at least one channel pitch of spacing
  (approximated by a minimum spacing between distinct node coordinates),
* device rectangles do not overlap,
* every storage segment keeps enough channel length to hold its fluid
  sample — when straight-line distance falls short, serpentine bends are
  inserted, each bend contributing two extra pitch lengths.

The loop terminates when neither dimension can shrink any further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.physical.geometry import Point, Rect
from repro.physical.layout import ChannelShape, DeviceShape, PhysicalLayout

#: Extra channel length (in layout units) obtained per inserted bend.
BEND_LENGTH_GAIN = 2.0


@dataclass
class CompressionConfig:
    """Constraints honoured while compressing."""

    min_channel_spacing: float = 1.0
    #: Channel length (in layout units) needed to cache one fluid sample.
    storage_segment_length: float = 3.0
    #: Hard cap on iterations as a safety net.
    max_iterations: int = 200


@dataclass
class CompressionResult:
    """Outcome of :func:`compress_layout`."""

    layout: PhysicalLayout
    iterations: int
    inserted_bends: int
    initial_dimensions: Tuple[int, int]
    final_dimensions: Tuple[int, int]

    @property
    def area_reduction(self) -> float:
        initial = self.initial_dimensions[0] * self.initial_dimensions[1]
        final = self.final_dimensions[0] * self.final_dimensions[1]
        if initial <= 0:
            return 0.0
        return 1.0 - final / initial


def compress_layout(layout: PhysicalLayout, config: Optional[CompressionConfig] = None) -> CompressionResult:
    """Iteratively compress a layout; returns the compact layout and metrics."""
    config = config or CompressionConfig()
    current = _copy_layout(layout)
    initial_dims = current.dimensions()

    iterations = 0
    shrink_x_possible = True
    shrink_y_possible = True
    while (shrink_x_possible or shrink_y_possible) and iterations < config.max_iterations:
        progressed = False
        if shrink_x_possible:
            candidate = _shrink_axis(current, axis="x", config=config)
            if candidate is not None:
                current = candidate
                progressed = True
            else:
                shrink_x_possible = False
        if shrink_y_possible:
            candidate = _shrink_axis(current, axis="y", config=config)
            if candidate is not None:
                current = candidate
                progressed = True
            else:
                shrink_y_possible = False
        iterations += 1
        if not progressed:
            break

    inserted = _insert_bends(current, config)
    final_dims = current.dimensions()
    return CompressionResult(
        layout=current,
        iterations=iterations,
        inserted_bends=inserted,
        initial_dimensions=initial_dims,
        final_dimensions=final_dims,
    )


# ---------------------------------------------------------------- internals
def _copy_layout(layout: PhysicalLayout) -> PhysicalLayout:
    return PhysicalLayout(
        devices=[DeviceShape(d.device_id, Rect(d.rect.x, d.rect.y, d.rect.width, d.rect.height), d.node_id)
                 for d in layout.devices],
        channels=[ChannelShape(c.edge, list(c.points), c.min_length, c.is_storage, c.bends, c.extra_length)
                  for c in layout.channels],
        node_positions=dict(layout.node_positions),
        pitch=layout.pitch,
    )


def _axis_values(layout: PhysicalLayout, axis: str) -> List[float]:
    values = {getattr(p, axis) for p in layout.node_positions.values()}
    return sorted(values)


def _shrink_axis(layout: PhysicalLayout, axis: str, config: CompressionConfig) -> Optional[PhysicalLayout]:
    """Try to remove one unit of slack along ``axis``; None when impossible."""
    values = _axis_values(layout, axis)
    if len(values) < 2:
        return None

    # Required spacing between consecutive coordinate groups: at least the
    # channel spacing, plus room for the devices anchored at those groups.
    device_extent: Dict[float, float] = {}
    for device in layout.devices:
        node_point = layout.node_positions[device.node_id]
        coordinate = getattr(node_point, axis)
        extent = device.rect.width if axis == "x" else device.rect.height
        device_extent[coordinate] = max(device_extent.get(coordinate, 0.0), extent)

    gaps = []
    shrinkable = False
    for left, right in zip(values, values[1:]):
        gap = right - left
        required = max(
            config.min_channel_spacing,
            device_extent.get(left, 0.0) / 2.0 + device_extent.get(right, 0.0) / 2.0 + config.min_channel_spacing,
        )
        gaps.append((left, right, gap, required))
        if gap > required + 1e-9:
            shrinkable = True
    if not shrinkable:
        return None

    # Shrink every over-wide gap by one unit (or down to its requirement).
    new_coordinate = {values[0]: values[0]}
    position = values[0]
    for left, right, gap, required in gaps:
        new_gap = max(required, gap - 1.0)
        position = new_coordinate[left] + new_gap
        new_coordinate[right] = position

    compressed = _copy_layout(layout)
    for node_id, point in compressed.node_positions.items():
        old = getattr(point, axis)
        updated = new_coordinate[old]
        compressed.node_positions[node_id] = (
            Point(updated, point.y) if axis == "x" else Point(point.x, updated)
        )
    for device in compressed.devices:
        node_point = compressed.node_positions[device.node_id]
        device.rect = Rect(
            node_point.x - device.rect.width / 2.0,
            node_point.y - device.rect.height / 2.0,
            device.rect.width,
            device.rect.height,
        )
    for channel in compressed.channels:
        a, b = sorted(channel.edge)
        channel.points = [compressed.node_positions[a], compressed.node_positions[b]]

    # Reject the move if it makes devices collide.
    for i, dev_a in enumerate(compressed.devices):
        for dev_b in compressed.devices[i + 1 :]:
            if dev_a.rect.intersects(dev_b.rect):
                return None
    return compressed


def _insert_bends(layout: PhysicalLayout, config: CompressionConfig) -> int:
    """Add serpentine bends to storage segments that became too short."""
    inserted = 0
    for channel in layout.channels:
        if not channel.is_storage:
            continue
        channel.min_length = max(channel.min_length, config.storage_segment_length)
        deficit = channel.length_deficit()
        if deficit <= 1e-9:
            continue
        bends_needed = math.ceil(deficit / BEND_LENGTH_GAIN)
        channel.bends += bends_needed
        # Bends are represented logically (the polyline keeps its endpoints);
        # the added length is accounted for in the channel's effective length.
        channel.extra_length += bends_needed * BEND_LENGTH_GAIN
        inserted += bends_needed
    return inserted
