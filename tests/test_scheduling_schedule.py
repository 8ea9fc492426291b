"""Tests of the Schedule data model and its validation."""

import pytest

from repro.devices.device import default_device_library
from repro.scheduling.schedule import Schedule, ScheduledOperation, ScheduleValidationError


@pytest.fixture()
def empty_schedule(diamond_graph, two_mixer_library):
    return Schedule(diamond_graph, two_mixer_library, transport_time=10)


def fill_valid(schedule: Schedule) -> Schedule:
    """A hand-built valid schedule of the diamond graph on two mixers."""
    schedule.assign("i1", None, 0, 0)
    schedule.assign("i2", None, 0, 0)
    schedule.assign("o1", "mixer1", 0, 60)
    schedule.assign("o2", "mixer1", 60, 120)
    schedule.assign("o3", "mixer2", 70, 130)
    schedule.assign("o4", "mixer1", 140, 200)
    return schedule


class TestScheduledOperation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ScheduledOperation("o1", "mixer1", 10, 5)

    def test_overlap_detection(self):
        first = ScheduledOperation("o1", "m", 0, 10)
        second = ScheduledOperation("o2", "m", 5, 15)
        third = ScheduledOperation("o3", "m", 10, 20)
        assert first.overlaps(second)
        assert not first.overlaps(third)

    def test_duration(self):
        assert ScheduledOperation("o1", "m", 5, 25).duration == 20


class TestScheduleBuilding:
    def test_unknown_operation_rejected(self, empty_schedule):
        with pytest.raises(KeyError):
            empty_schedule.assign("zz", "mixer1", 0, 10)

    def test_unknown_device_rejected(self, empty_schedule):
        with pytest.raises(KeyError):
            empty_schedule.assign("o1", "laser9", 0, 10)

    def test_device_operation_needs_device(self, empty_schedule):
        with pytest.raises(ValueError):
            empty_schedule.assign("o1", None, 0, 10)

    def test_negative_transport_time_rejected(self, diamond_graph, two_mixer_library):
        with pytest.raises(ValueError):
            Schedule(diamond_graph, two_mixer_library, transport_time=-1)


class TestScheduleQueries:
    def test_makespan(self, empty_schedule):
        fill_valid(empty_schedule)
        assert empty_schedule.makespan == 200

    def test_gap_and_same_device(self, empty_schedule):
        fill_valid(empty_schedule)
        assert empty_schedule.gap("o1", "o2") == 0
        assert empty_schedule.gap("o1", "o3") == 10
        assert empty_schedule.same_device("o1", "o2")
        assert not empty_schedule.same_device("o1", "o3")

    def test_device_entries_sorted(self, empty_schedule):
        fill_valid(empty_schedule)
        ids = [e.op_id for e in empty_schedule.device_entries("mixer1")]
        assert ids == ["o1", "o2", "o4"]

    def test_devices_used(self, empty_schedule):
        fill_valid(empty_schedule)
        assert empty_schedule.devices_used() == ["mixer1", "mixer2"]

    def test_is_complete(self, empty_schedule):
        unscheduled = sorted(p.split("'")[1] for p in empty_schedule.validate())
        assert unscheduled == ["o1", "o2", "o3", "o4"]
        fill_valid(empty_schedule)
        assert empty_schedule.validate() == []

    def test_as_table(self, empty_schedule):
        fill_valid(empty_schedule)
        rows = empty_schedule.as_table()
        assert ("o1", "mixer1", 0, 60) in rows


class TestScheduleValidation:
    def test_valid_schedule_passes(self, empty_schedule):
        fill_valid(empty_schedule)
        assert empty_schedule.validate() == []
        empty_schedule.assert_valid()

    def test_missing_operation_detected(self, empty_schedule):
        empty_schedule.assign("o1", "mixer1", 0, 60)
        assert any("not scheduled" in p for p in empty_schedule.validate())

    def test_precedence_violation_detected(self, empty_schedule):
        fill_valid(empty_schedule)
        # o3 on another device must start at least u_c after o1 ends.
        empty_schedule.assign("o3", "mixer2", 65, 125)
        problems = empty_schedule.validate()
        assert any("precedence violated" in p for p in problems)

    def test_same_device_needs_no_transport_gap(self, empty_schedule):
        fill_valid(empty_schedule)
        empty_schedule.assign("o2", "mixer1", 60, 120)  # back-to-back is fine
        assert empty_schedule.validate() == []

    def test_device_overlap_detected(self, empty_schedule):
        fill_valid(empty_schedule)
        empty_schedule.assign("o2", "mixer1", 30, 90)
        problems = empty_schedule.validate()
        assert any("overlap" in p for p in problems)

    def test_too_short_duration_detected(self, empty_schedule):
        fill_valid(empty_schedule)
        empty_schedule.assign("o4", "mixer1", 140, 150)
        problems = empty_schedule.validate()
        assert any("scheduled duration" in p for p in problems)

    def test_incompatible_device_detected(self, diamond_graph):
        library = default_device_library(num_mixers=1, num_detectors=1)
        schedule = Schedule(diamond_graph, library, transport_time=10)
        schedule.assign("o1", "detector1", 0, 60)
        schedule.assign("o2", "mixer1", 70, 130)
        schedule.assign("o3", "mixer1", 130, 190)
        schedule.assign("o4", "mixer1", 200, 260)
        problems = schedule.validate()
        assert any("incompatible device" in p for p in problems)

    def test_assert_valid_raises(self, empty_schedule):
        empty_schedule.assign("o1", "mixer1", 0, 60)
        with pytest.raises(ScheduleValidationError):
            empty_schedule.assert_valid()
