"""Tests of the dedicated storage-unit model."""

import pytest

from repro.devices.channel import FluidSample
from repro.devices.storage import DedicatedStorageUnit, storage_unit_valve_count


def sample(idx: int) -> FluidSample:
    return FluidSample(f"s{idx}", producer=f"o{idx}", consumer=f"o{idx + 1}")


class TestValveCountModel:
    def test_eight_cell_unit(self):
        # 2 * log2(8) = 6 multiplexer valves + 16 cell-isolation valves.
        assert storage_unit_valve_count(8) == 22

    def test_single_cell_unit(self):
        assert storage_unit_valve_count(1) == 2 + 2

    def test_two_ports_double_mux(self):
        assert storage_unit_valve_count(8, num_ports=2) == 2 * 3 * 2 + 16

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            storage_unit_valve_count(0)
        with pytest.raises(ValueError):
            storage_unit_valve_count(4, num_ports=0)

    def test_valve_count_grows_with_cells(self):
        counts = [storage_unit_valve_count(n) for n in (2, 4, 8, 16)]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)


class TestStorageUnitTiming:
    def test_store_then_fetch(self):
        unit = DedicatedStorageUnit(num_cells=4, access_time=10)
        store = unit.store(sample(1), requested_at=100)
        assert store.started_at == 100
        assert store.finished_at == 110
        fetch = unit.fetch("s1", requested_at=200)
        assert fetch.finished_at == 210
        assert unit.occupancy() == 0

    def test_port_queueing_serializes_simultaneous_accesses(self):
        unit = DedicatedStorageUnit(num_cells=4, num_ports=1, access_time=10)
        first = unit.store(sample(1), requested_at=100)
        second = unit.store(sample(2), requested_at=100)
        assert first.queueing_delay == 0
        assert second.queueing_delay == 10
        assert unit.total_queueing_delay() == 10

    def test_two_ports_serve_in_parallel(self):
        unit = DedicatedStorageUnit(num_cells=4, num_ports=2, access_time=10)
        unit.store(sample(1), requested_at=100)
        second = unit.store(sample(2), requested_at=100)
        assert second.queueing_delay == 0

    def test_overflow_raises(self):
        unit = DedicatedStorageUnit(num_cells=1, access_time=5)
        unit.store(sample(1), requested_at=0)
        with pytest.raises(RuntimeError):
            unit.store(sample(2), requested_at=10)

    def test_fetch_unknown_sample_raises(self):
        unit = DedicatedStorageUnit(num_cells=2)
        with pytest.raises(KeyError):
            unit.fetch("missing", requested_at=0)

    def test_peak_occupancy_tracking(self):
        unit = DedicatedStorageUnit(num_cells=4, access_time=1)
        unit.store(sample(1), 0)
        unit.store(sample(2), 0)
        unit.fetch("s1", 10)
        assert unit.peak_occupancy == 2
        assert [a.kind for a in unit.accesses] == ["store", "store", "fetch"]

    def test_invalid_access_time(self):
        with pytest.raises(ValueError):
            DedicatedStorageUnit(access_time=0)
