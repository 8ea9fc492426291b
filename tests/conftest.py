"""Shared fixtures for the test suite.

Expensive artifacts (ILP schedules, synthesized architectures) are built once
per session and reused by many tests.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.archsyn.router import HeuristicSynthesizer, SynthesisConfig
from repro.devices.device import default_device_library
from repro.graph.library import build_ivd, build_pcr
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.obs.logs import ROOT_LOGGER
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import synthesize
from repro.synthesis.pipeline import STAGES_BY_NAME

from solve_capture import captured_solves


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Put the ``repro`` logger back as each test found it.

    A test that runs the CLI in-process attaches a handler bound to the
    ``sys.stderr`` of that moment, which is pytest's capture stream; once
    the test ends, a later record (say, from a daemon thread) would be
    written to the closed stream.
    """
    logger = logging.getLogger(ROOT_LOGGER)
    saved = (list(logger.handlers), logger.level, logger.propagate)
    yield
    logger.handlers[:] = saved[0]
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


@pytest.fixture()
def diamond_graph() -> SequencingGraph:
    """Four-operation diamond: o1 feeds o2 and o3, which feed o4."""
    graph = SequencingGraph(name="diamond")
    graph.add_input("i1")
    graph.add_input("i2")
    for op_id in ("o1", "o2", "o3", "o4"):
        graph.add_mix(op_id, 60)
    graph.add_edge("i1", "o1")
    graph.add_edge("i2", "o1")
    graph.add_edge("o1", "o2")
    graph.add_edge("o1", "o3")
    graph.add_edge("o2", "o4")
    graph.add_edge("o3", "o4")
    return graph


@pytest.fixture()
def chain_graph() -> SequencingGraph:
    """Five mixing operations in a single chain."""
    graph = SequencingGraph(name="chain")
    graph.add_input("i1")
    previous = "i1"
    for idx in range(1, 6):
        op_id = f"o{idx}"
        graph.add_mix(op_id, 30)
        graph.add_edge(previous, op_id)
        previous = op_id
    return graph


@pytest.fixture()
def pcr_graph() -> SequencingGraph:
    return build_pcr()


@pytest.fixture()
def ivd_graph() -> SequencingGraph:
    return build_ivd()


@pytest.fixture()
def two_mixer_library():
    return default_device_library(num_mixers=2)


@pytest.fixture()
def small_random_graph() -> SequencingGraph:
    return random_assay(RandomAssayConfig(num_operations=12, seed=7))


@pytest.fixture(scope="session")
def pcr_schedule():
    """A storage-aware list schedule of PCR on two mixers."""
    library = default_device_library(num_mixers=2)
    scheduler = ListScheduler(library, ListSchedulerConfig(transport_time=10))
    return scheduler.schedule(build_pcr())


@pytest.fixture(scope="session")
def pcr_architecture(pcr_schedule):
    synthesizer = HeuristicSynthesizer(SynthesisConfig(grid_rows=4, grid_cols=4))
    return synthesizer.synthesize(pcr_schedule)


@pytest.fixture(scope="session")
def pcr_result():
    """Full end-to-end synthesis of PCR (schedule, architecture, layout)."""
    config = FlowConfig(num_mixers=2, ilp_operation_limit=0)  # force the list scheduler
    return synthesize(build_pcr(), config)


@pytest.fixture(scope="session")
def ra_result():
    """End-to-end synthesis of a mid-size random assay on four mixers."""
    graph = random_assay(RandomAssayConfig(num_operations=20, seed=42))
    config = FlowConfig(num_mixers=4, ilp_operation_limit=0)
    return synthesize(graph, config)


@pytest.fixture()
def loose_bound_guard():
    """A check that every ``Model.solve`` so far ran a backend.

    A solve whose warm start meets the model's certified lower bound never
    reaches a backend, so a test of backend behaviour calls the returned
    check to prove that every recorded solve had a lower bound strictly
    below its warm start's objective, or no warm start at all.
    """
    with captured_solves() as calls:
        def check():
            assert calls, "no Model.solve call was recorded"
            for model, options, _ in calls:
                warm = options.warm_start if options is not None else None
                bound = model.lower_bound
                assert bound is not None and (warm is None or bound < warm.objective - 1e-6), (
                    bound, warm and warm.objective)

        yield check


@pytest.fixture()
def stage_runs(monkeypatch):
    """Live ``{stage name: calls}`` count of real stage executions.

    Wraps each stage class's ``run``, so it counts what actually executed in
    this process (cache replays never call ``run``) independently of the
    engine's own ``StageExecution`` rows.  A call counts on entry, so a
    stage that raises is still counted.
    """
    counts = {}
    lock = threading.Lock()
    for name, stage in STAGES_BY_NAME.items():
        stage_class = type(stage)

        def counted(self, context, upstream, _name=name, _run=stage_class.run):
            with lock:
                counts[_name] = counts.get(_name, 0) + 1
            return _run(self, context, upstream)

        monkeypatch.setattr(stage_class, "run", counted)
    return counts
