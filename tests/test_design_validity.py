"""End-to-end validity of the paper assays' designs at several pitches.

Every design the flow produces must pass every stage's own check: the
schedule, the routed architecture and the compact layout validate clean,
the expanded layout has no device overlap, and a replay of the chip
reproduces the schedule's makespan without resource conflicts.

Pitch 2 is below the default ``storage_segment_length`` of 3, so the
scaled layout starts with storage segments that are too short and
compression has to lengthen them.
"""

from __future__ import annotations

import pytest

from repro.graph.library import assay_by_name
from repro.simulation.simulator import ChipSimulator
from repro.synthesis.config import FlowConfig, SchedulerEngine
from repro.synthesis.flow import synthesize

DESIGNS = [
    ("RA100", SchedulerEngine.LIST),
    ("RA70", SchedulerEngine.LIST),
    ("CPA", SchedulerEngine.LIST),
    ("RA30", SchedulerEngine.LIST),
    ("IVD", SchedulerEngine.LIST),
    ("PCR", SchedulerEngine.LIST),
    ("IVD", SchedulerEngine.ILP),
    ("PCR", SchedulerEngine.ILP),
]


@pytest.mark.parametrize("pitch", [2.0, 5.0, 8.0])
@pytest.mark.parametrize(
    "assay,scheduler", DESIGNS, ids=[f"{name}-{engine.value}" for name, engine in DESIGNS]
)
def test_design_is_valid_end_to_end(assay, scheduler, pitch):
    config = FlowConfig.paper_defaults_for(assay)
    config.scheduler = scheduler
    config.pitch = pitch
    result = synthesize(assay_by_name(assay), config)
    physical = result.physical

    assert result.schedule.validate() == []
    assert result.architecture.validate() == []
    assert physical.compact_layout.validate() == []
    assert [p for p in physical.expanded_layout.validate() if "overlap" in p] == []
    if pitch < config.storage_segment_length and result.architecture.storage_segments():
        assert any("too short" in p for p in physical.architecture_layout.validate())

    replay = ChipSimulator(result.schedule, result.architecture).run()
    assert replay.is_valid, replay.problems
    assert replay.makespan == result.schedule.makespan
