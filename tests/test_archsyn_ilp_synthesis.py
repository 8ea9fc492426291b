"""Tests of the exact (ILP) architectural-synthesis engine on small instances."""

import pytest

from repro.archsyn.ilp_synthesis import IlpSynthesisConfig, IlpSynthesizer
from repro.archsyn.router import HeuristicSynthesizer, SynthesisConfig
from repro.devices.device import default_device_library
from repro.graph.sequencing_graph import SequencingGraph
from repro.ilp import SolverOptions
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.schedule import Schedule

SIXTY_SECONDS = SolverOptions(time_limit_s=60)


def tiny_graph() -> SequencingGraph:
    graph = SequencingGraph("tiny")
    graph.add_input("i1")
    graph.add_input("i2")
    graph.add_mix("o1", 60)
    graph.add_mix("o2", 60)
    graph.add_mix("o3", 60)
    graph.add_edge("i1", "o1")
    graph.add_edge("i2", "o2")
    graph.add_edge("o1", "o3")
    graph.add_edge("o2", "o3")
    return graph


@pytest.fixture(scope="module")
def tiny_schedule():
    library = default_device_library(num_mixers=2)
    return ListScheduler(library).schedule(tiny_graph())


class TestIlpSynthesizer:
    def test_produces_valid_architecture(self, tiny_schedule):
        synthesizer = IlpSynthesizer(IlpSynthesisConfig(grid_rows=3, grid_cols=3, solver=SIXTY_SECONDS))
        architecture = synthesizer.synthesize(tiny_schedule)
        assert architecture.validate() == []
        assert architecture.num_edges >= 1
        assert len(architecture.routed_tasks) == len(
            [t for t in architecture.routed_tasks]
        )

    def test_edge_count_not_worse_than_heuristic(self, tiny_schedule):
        ilp_arch = IlpSynthesizer(
            IlpSynthesisConfig(grid_rows=3, grid_cols=3, solver=SIXTY_SECONDS)
        ).synthesize(tiny_schedule)
        heuristic_arch = HeuristicSynthesizer(
            SynthesisConfig(grid_rows=3, grid_cols=3)
        ).synthesize(tiny_schedule)
        assert ilp_arch.num_edges <= heuristic_arch.num_edges

    def test_too_many_devices_rejected(self):
        library = default_device_library(num_mixers=2)
        graph = tiny_graph()
        schedule = ListScheduler(library).schedule(graph)
        from repro.archsyn.router import SynthesisError

        synthesizer = IlpSynthesizer(IlpSynthesisConfig(grid_rows=1, grid_cols=1))
        with pytest.raises(SynthesisError):
            synthesizer.synthesize(schedule)

    def test_objective_recorded(self, tiny_schedule):
        synthesizer = IlpSynthesizer(IlpSynthesisConfig(grid_rows=3, grid_cols=3, solver=SIXTY_SECONDS))
        architecture = synthesizer.synthesize(tiny_schedule)
        assert architecture.solve.objective is not None
        assert architecture.solve.objective >= architecture.num_edges - 1e-6

    def test_default_solver_keeps_the_120_s_limit(self):
        assert IlpSynthesisConfig().solver == SolverOptions(time_limit_s=120.0)
