"""Tests of devices and the device library."""

import pytest

from repro.devices.device import Device, DeviceKind, DeviceLibrary, default_device_library
from repro.graph.sequencing_graph import OperationType


class TestDevice:
    def test_supports_operation_kinds(self):
        mixer = Device("m1", DeviceKind.MIXER)
        detector = Device("d1", DeviceKind.DETECTOR)
        assert mixer.supports(OperationType.MIX)
        assert mixer.supports(OperationType.DILUTE)
        assert not mixer.supports(OperationType.DETECT)
        assert detector.supports(OperationType.DETECT)

    def test_invalid_footprint(self):
        with pytest.raises(ValueError):
            Device("m1", footprint=(0, 2))

    def test_invalid_speedup(self):
        with pytest.raises(ValueError):
            Device("m1", speedup=0)

    def test_execution_time_with_speedup(self):
        fast = Device("m1", speedup=2.0)
        assert fast.execution_time(90) == 45
        assert fast.execution_time(0) == 0
        normal = Device("m2")
        assert normal.execution_time(90) == 90

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Device("m1").execution_time(-1)


class TestDeviceLibrary:
    def test_duplicate_id_rejected(self):
        library = DeviceLibrary([Device("m1")])
        with pytest.raises(ValueError):
            library.add(Device("m1"))

    def test_devices_for_kind(self):
        library = default_device_library(num_mixers=2, num_detectors=1)
        assert len(library.devices_for(OperationType.MIX)) == 2
        assert len(library.devices_for(OperationType.DETECT)) == 1
        assert len(library.devices_for(OperationType.HEAT)) == 0

    def test_default_library_requires_a_mixer(self):
        with pytest.raises(ValueError):
            default_device_library(num_mixers=0)

    def test_membership_and_iteration(self):
        library = default_device_library(num_mixers=3)
        assert "mixer2" in library
        assert len(list(library)) == 3
        assert len(library) == 3

