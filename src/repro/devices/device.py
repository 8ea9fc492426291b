"""Devices (mixers, heaters, detectors) and the device library.

A device executes sequencing-graph operations.  The synthesis flow treats
devices abstractly — what matters is which operation kinds a device supports,
its execution timing and its physical footprint (for the layout stage) and
valve count (for resource accounting).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.sequencing_graph import OperationType


class DeviceKind(enum.Enum):
    MIXER = "mixer"
    HEATER = "heater"
    DETECTOR = "detector"
    FILTER = "filter"

    @property
    def supported_operations(self) -> Tuple[OperationType, ...]:
        return _SUPPORTED[self]


_SUPPORTED: Dict[DeviceKind, Tuple[OperationType, ...]] = {
    DeviceKind.MIXER: (OperationType.MIX, OperationType.DILUTE, OperationType.WASH),
    DeviceKind.HEATER: (OperationType.HEAT,),
    DeviceKind.DETECTOR: (OperationType.DETECT,),
    DeviceKind.FILTER: (OperationType.WASH,),
}


@dataclass
class Device:
    """A physical device instance on the chip.

    Attributes
    ----------
    device_id:
        Unique name, e.g. ``"mixer1"``.
    kind:
        The :class:`DeviceKind`.
    footprint:
        (width, height) in layout units, used by device insertion.
    internal_valve_count:
        Valves inside the device (e.g. 9 for a ring mixer).  These are *not*
        counted in the architecture's ``n_v`` metric (the paper excludes
        mixer-internal valves) but are reported separately.
    speedup:
        Relative execution-speed factor; an operation of duration ``d`` takes
        ``ceil(d / speedup)`` on this device.  1.0 reproduces the paper's
        homogeneous-device setting.
    """

    device_id: str
    kind: DeviceKind = DeviceKind.MIXER
    footprint: Tuple[int, int] = (4, 2)
    internal_valve_count: int = 9
    speedup: float = 1.0

    def __post_init__(self) -> None:
        if self.footprint[0] <= 0 or self.footprint[1] <= 0:
            raise ValueError(f"device {self.device_id!r}: footprint must be positive")
        if self.speedup <= 0:
            raise ValueError(f"device {self.device_id!r}: speedup must be positive")

    def supports(self, operation_kind: OperationType) -> bool:
        return operation_kind in self.kind.supported_operations

    def execution_time(self, nominal_duration: int) -> int:
        """Duration of an operation on this device, accounting for speedup."""
        if nominal_duration < 0:
            raise ValueError("nominal duration must be non-negative")
        return int(-(-nominal_duration // self.speedup)) if self.speedup != 1.0 else nominal_duration

    def __hash__(self) -> int:
        return hash(self.device_id)

    def __repr__(self) -> str:
        return f"Device({self.device_id!r}, {self.kind.value})"


class DeviceLibrary:
    """The set of devices available for binding.

    The paper's problem statement takes "the maximum numbers of devices
    allowed in the chip" as an input; a :class:`DeviceLibrary` is the concrete
    realization of that input.
    """

    def __init__(self, devices: Optional[Sequence[Device]] = None) -> None:
        self._devices: Dict[str, Device] = {}
        for device in devices or []:
            self.add(device)

    def add(self, device: Device) -> Device:
        if device.device_id in self._devices:
            raise ValueError(f"duplicate device id {device.device_id!r}")
        self._devices[device.device_id] = device
        return device

    def device(self, device_id: str) -> Device:
        return self._devices[device_id]

    def devices(self) -> List[Device]:
        return list(self._devices.values())

    def devices_for(self, operation_kind: OperationType) -> List[Device]:
        """Devices able to execute the given operation kind."""
        return [d for d in self._devices.values() if d.supports(operation_kind)]

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def __iter__(self):
        return iter(self._devices.values())

    def __repr__(self) -> str:
        kinds = {}
        for d in self._devices.values():
            kinds[d.kind.value] = kinds.get(d.kind.value, 0) + 1
        return f"DeviceLibrary({kinds})"


def default_device_library(
    num_mixers: int = 2,
    num_detectors: int = 0,
    num_heaters: int = 0,
    mixer_footprint: Tuple[int, int] = (4, 2),
) -> DeviceLibrary:
    """Build the homogeneous device library used by the paper's experiments.

    The paper's evaluation executes all assays on a small number of mixers
    (operations are all mixing-class).  Detection/heating devices can be added
    for assays such as IVD that include optical detection steps.
    """
    if num_mixers < 1:
        raise ValueError("at least one mixer is required")
    library = DeviceLibrary()
    for idx in range(1, num_mixers + 1):
        library.add(Device(f"mixer{idx}", DeviceKind.MIXER, footprint=mixer_footprint))
    for idx in range(1, num_detectors + 1):
        library.add(Device(f"detector{idx}", DeviceKind.DETECTOR, footprint=(2, 2), internal_valve_count=2))
    for idx in range(1, num_heaters + 1):
        library.add(Device(f"heater{idx}", DeviceKind.HEATER, footprint=(3, 2), internal_valve_count=4))
    return library
