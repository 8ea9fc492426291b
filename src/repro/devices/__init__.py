"""Device library, channel segments and the dedicated storage unit.

* :class:`Device` / :class:`DeviceLibrary` — the mixers, heaters, detectors
  and filters that execute sequencing-graph operations: which operation
  kinds each supports, its footprint for the layout stage and its internal
  valve count.
* :class:`ChannelSegment` / :class:`FluidSample` — the piece of flow channel
  between two grid nodes and the samples it carries; the simulator replays
  transport and storage on them.
* :class:`DedicatedStorageUnit` / :func:`storage_unit_valve_count` — the
  conventional storage unit the dedicated-storage baseline (Fig. 10) is
  built on.
"""

from repro.devices.channel import ChannelSegment, FluidSample
from repro.devices.device import Device, DeviceKind, DeviceLibrary, default_device_library
from repro.devices.storage import DedicatedStorageUnit, StorageAccess, storage_unit_valve_count

__all__ = [
    "ChannelSegment",
    "FluidSample",
    "Device",
    "DeviceKind",
    "DeviceLibrary",
    "default_device_library",
    "DedicatedStorageUnit",
    "StorageAccess",
    "storage_unit_valve_count",
]
