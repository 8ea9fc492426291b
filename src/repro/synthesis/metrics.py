"""Metrics collected from a synthesis result (the evaluation's vocabulary)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Tuple

from repro.scheduling.transport import (
    cross_device_gap_sum,
    extract_transport_tasks,
    peak_of,
    requirements_of,
)
from repro.scheduling.schedule import Schedule
from repro.synthesis.flow import SynthesisResult


@dataclass
class FlowMetrics:
    """Flat summary of one synthesis run (one Table 2 row plus extras)."""

    assay: str
    num_operations: int
    execution_time: int          # t_E
    scheduling_time_s: float     # t_s
    grid_shape: Tuple[int, int]  # G
    num_edges: int               # n_e
    num_valves: int              # n_v
    synthesis_time_s: float      # t_r
    dim_architecture: Tuple[int, int]  # d_r
    dim_expanded: Tuple[int, int]      # d_e
    dim_compact: Tuple[int, int]       # d_p
    physical_time_s: float             # t_p
    edge_ratio: float
    valve_ratio: float
    num_transport_tasks: int
    num_storage_requirements: int
    peak_storage: int
    total_storage_time: int
    cross_device_gap: int
    scheduler_engine: str
    synthesis_engine: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "assay": self.assay,
            "|O|": self.num_operations,
            "tE": self.execution_time,
            "ts(s)": round(self.scheduling_time_s, 3),
            "G": f"{self.grid_shape[0]}x{self.grid_shape[1]}",
            "ne": self.num_edges,
            "nv": self.num_valves,
            "tr(s)": round(self.synthesis_time_s, 3),
            "dr": f"{self.dim_architecture[0]}x{self.dim_architecture[1]}",
            "de": f"{self.dim_expanded[0]}x{self.dim_expanded[1]}",
            "dp": f"{self.dim_compact[0]}x{self.dim_compact[1]}",
            "tp(s)": round(self.physical_time_s, 3),
            "edge_ratio": round(self.edge_ratio, 3),
            "valve_ratio": round(self.valve_ratio, 3),
            "transports": self.num_transport_tasks,
            "storages": self.num_storage_requirements,
            "peak_storage": self.peak_storage,
            "scheduler": self.scheduler_engine,
            "synthesizer": self.synthesis_engine,
        }


class _ScheduleFigures(NamedTuple):
    """The part of :class:`FlowMetrics` that depends on the schedule alone."""

    num_operations: int
    num_transport_tasks: int
    num_storage_requirements: int
    peak_storage: int
    total_storage_time: int
    cross_device_gap: int


def _schedule_figures(schedule: Schedule) -> _ScheduleFigures:
    tasks = extract_transport_tasks(schedule)
    requirements = requirements_of(tasks, schedule.transport_time)
    return _ScheduleFigures(
        num_operations=len(schedule.graph.device_operations()),
        num_transport_tasks=len(tasks),
        num_storage_requirements=len(requirements),
        peak_storage=peak_of(requirements),
        total_storage_time=sum(req.duration for req in requirements),
        cross_device_gap=cross_device_gap_sum(schedule),
    )


def collect_metrics(result: SynthesisResult) -> FlowMetrics:
    """Derive all evaluation metrics from a :class:`SynthesisResult`.

    The schedule-derived figures are computed once per schedule object
    (:meth:`Schedule.derived`): the jobs of a sweep that differ only in
    downstream knobs share one cached schedule.
    """
    schedule = result.schedule
    architecture = result.architecture
    figures = schedule.derived(_schedule_figures)
    return FlowMetrics(
        assay=result.graph.name,
        num_operations=figures.num_operations,
        execution_time=schedule.makespan,
        scheduling_time_s=result.scheduling_time_s,
        grid_shape=architecture.grid.shape,
        num_edges=architecture.num_edges,
        num_valves=architecture.num_valves,
        synthesis_time_s=result.synthesis_time_s,
        dim_architecture=result.physical.architecture_dimensions,
        dim_expanded=result.physical.expanded_dimensions,
        dim_compact=result.physical.compact_dimensions,
        physical_time_s=result.physical_time_s,
        edge_ratio=architecture.edge_ratio(),
        valve_ratio=architecture.valve_ratio(),
        num_transport_tasks=figures.num_transport_tasks,
        num_storage_requirements=figures.num_storage_requirements,
        peak_storage=figures.peak_storage,
        total_storage_time=figures.total_storage_time,
        cross_device_gap=figures.cross_device_gap,
        scheduler_engine=result.scheduler_engine,
        synthesis_engine=result.synthesis_engine,
    )
