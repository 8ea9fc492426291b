"""End-to-end physical design: scaling → device insertion → compression."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.archsyn.architecture import ChipArchitecture
from repro.devices.device import DeviceLibrary
from repro.obs.trace import span as obs_span
from repro.physical.compression import CompressionConfig, CompressionResult, compress_layout
from repro.physical.device_insertion import insert_devices
from repro.physical.layout import PhysicalLayout, layout_from_architecture


@dataclass
class PhysicalDesignConfig:
    """Parameters of the physical design stage.

    ``pitch`` is the minimum channel distance specified by the designer (the
    paper scales the architecture by this unit before compression);
    ``storage_segment_length`` is the channel length one cached fluid sample
    requires.
    """

    pitch: float = 5.0
    storage_segment_length: float = 3.0
    min_channel_spacing: float = 1.0


@dataclass
class PhysicalDesignResult:
    """All three layout stages plus the Table 2 dimension columns."""

    architecture_layout: PhysicalLayout
    expanded_layout: PhysicalLayout
    compact_layout: PhysicalLayout
    architecture_dimensions: Tuple[int, int]  # d_r
    expanded_dimensions: Tuple[int, int]      # d_e
    compact_dimensions: Tuple[int, int]       # d_p
    compression: CompressionResult
    wall_time_s: float

    @property
    def area_reduction(self) -> float:
        """Fractional area saved by compression (d_e vs d_p)."""
        expanded = self.expanded_dimensions[0] * self.expanded_dimensions[1]
        compact = self.compact_dimensions[0] * self.compact_dimensions[1]
        if expanded <= 0:
            return 0.0
        return 1.0 - compact / expanded


def build_physical_design(
    architecture: ChipArchitecture,
    library: DeviceLibrary,
    config: Optional[PhysicalDesignConfig] = None,
) -> PhysicalDesignResult:
    """Run the three-step physical design of Section 3.3 on an architecture."""
    config = config or PhysicalDesignConfig()
    start = time.perf_counter()

    with obs_span("physical:scale", category="physical"):
        scaled = layout_from_architecture(
            architecture,
            pitch=config.pitch,
            storage_min_length=config.storage_segment_length,
        )
    with obs_span("physical:insert", category="physical"):
        expanded = insert_devices(scaled, architecture, library)
    with obs_span("physical:compress", category="physical"):
        compression = compress_layout(
            expanded,
            CompressionConfig(
                min_channel_spacing=config.min_channel_spacing,
                storage_segment_length=config.storage_segment_length,
            ),
        )
    elapsed = time.perf_counter() - start

    return PhysicalDesignResult(
        architecture_layout=scaled,
        expanded_layout=expanded,
        compact_layout=compression.layout,
        architecture_dimensions=scaled.dimensions(),
        expanded_dimensions=expanded.dimensions(),
        compact_dimensions=compression.layout.dimensions(),
        compression=compression,
        wall_time_s=elapsed,
    )
