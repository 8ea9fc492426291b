"""The end-to-end synthesis flow.

Since the staged refactor, the actual execution lives in
:mod:`repro.synthesis.pipeline` (``ScheduleStage`` → ``ArchSynthStage`` →
``PhysicalStage`` with typed, individually cacheable artifacts); this module
keeps the public entry point :func:`synthesize`, the engine builders the
stages delegate to, and :class:`SynthesisResult` — now a thin view assembled
from the three stage artifacts so existing callers and tests are unaffected
by where each piece was computed (fresh run, stage replay, or a mix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.archsyn.architecture import ChipArchitecture
from repro.archsyn.ilp_synthesis import IlpSynthesisConfig, IlpSynthesizer
from repro.archsyn.router import HeuristicSynthesizer, SynthesisConfig
from repro.devices.device import DeviceLibrary, default_device_library
from repro.graph.sequencing_graph import SequencingGraph
from repro.physical.pipeline import PhysicalDesignResult
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig
from repro.scheduling.list_scheduler import ListScheduler, ListSchedulerConfig
from repro.scheduling.schedule import Schedule
from repro.synthesis.config import (
    FlowConfig,
    SchedulerEngine,
    SynthesisEngine,
    solver_options_for,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.synthesis.pipeline import (
        ArchitectureArtifact,
        PhysicalArtifact,
        ScheduleArtifact,
    )


@dataclass
class SynthesisResult:
    """Everything the flow produces for one assay.

    A thin view over the three stage artifacts: the fields below are exactly
    what :meth:`from_artifacts` copies out of a
    (:class:`~repro.synthesis.pipeline.ScheduleArtifact`,
    :class:`~repro.synthesis.pipeline.ArchitectureArtifact`,
    :class:`~repro.synthesis.pipeline.PhysicalArtifact`) triple, so a result
    assembled from cached artifacts is indistinguishable from a fresh run.
    Solver provenance is read from ``schedule.solve`` and
    ``architecture.solve`` (``None`` for the heuristic engines).
    """

    graph: SequencingGraph
    library: DeviceLibrary
    config: FlowConfig
    schedule: Schedule
    architecture: ChipArchitecture
    physical: PhysicalDesignResult
    scheduling_time_s: float
    synthesis_time_s: float
    physical_time_s: float
    scheduler_engine: str
    synthesis_engine: str
    #: Monte-Carlo verification report
    #: (:class:`repro.simulation.montecarlo.VerificationReport`) when the
    #: config enabled the verify stage; ``None`` on the three-stage flow.
    verification: Optional[object] = None
    verification_time_s: float = 0.0
    #: Deterministic-replay diagnostics propagated from the verify stage
    #: (always empty on a successful run — conflicts fail the stage).
    simulation_problems: Optional[list] = None

    @property
    def execution_time(self) -> int:
        """The assay completion time ``t_E``."""
        return self.schedule.makespan

    @classmethod
    def from_artifacts(
        cls,
        graph: SequencingGraph,
        library: DeviceLibrary,
        config: FlowConfig,
        schedule_artifact: "ScheduleArtifact",
        architecture_artifact: "ArchitectureArtifact",
        physical_artifact: "PhysicalArtifact",
        verification_artifact: Optional[object] = None,
    ) -> "SynthesisResult":
        """Assemble the result view from the stage artifacts.

        ``verification_artifact`` is the optional fourth-stage output; when
        present its distribution report and timing are copied onto the
        result so batch/service payloads can surface them.
        """
        return cls(
            graph=graph,
            library=library,
            config=config,
            schedule=schedule_artifact.schedule,
            architecture=architecture_artifact.architecture,
            physical=physical_artifact.physical,
            scheduling_time_s=schedule_artifact.scheduling_time_s,
            synthesis_time_s=architecture_artifact.synthesis_time_s,
            physical_time_s=physical_artifact.physical.wall_time_s,
            scheduler_engine=schedule_artifact.scheduler_engine,
            synthesis_engine=architecture_artifact.synthesis_engine,
            verification=getattr(verification_artifact, "report", None),
            verification_time_s=getattr(verification_artifact, "verification_time_s", 0.0),
            simulation_problems=getattr(verification_artifact, "simulation_problems", None),
        )


def build_library(config: FlowConfig) -> DeviceLibrary:
    """Device library matching the flow configuration."""
    return default_device_library(
        num_mixers=config.num_mixers,
        num_detectors=config.num_detectors,
        num_heaters=config.num_heaters,
    )


def _build_scheduler(config: FlowConfig, library: DeviceLibrary, graph: SequencingGraph):
    engine = config.scheduler
    if engine is SchedulerEngine.AUTO:
        if len(graph.device_operations()) <= config.ilp_operation_limit:
            engine = SchedulerEngine.ILP
        else:
            engine = SchedulerEngine.LIST
    if engine is SchedulerEngine.ILP:
        scheduler = IlpScheduler(
            library,
            IlpSchedulerConfig(
                transport_time=config.transport_time,
                alpha=config.alpha,
                beta=config.beta if config.storage_aware else 0.0,
                # Time limit, MIP gap, and backend all travel inside the
                # shared options object.
                solver=solver_options_for(config, "scheduler"),
            ),
        )
        return scheduler, "ilp"
    scheduler = ListScheduler(
        library,
        ListSchedulerConfig(
            transport_time=config.transport_time,
            storage_aware=config.storage_aware,
        ),
    )
    return scheduler, "list"


def _build_synthesizer(config: FlowConfig):
    if config.synthesis is SynthesisEngine.ILP:
        return (
            IlpSynthesizer(
                IlpSynthesisConfig(
                    grid_rows=config.grid_rows,
                    grid_cols=config.grid_cols,
                    solver=solver_options_for(config, "archsyn"),
                )
            ),
            "ilp",
        )
    return (
        HeuristicSynthesizer(
            SynthesisConfig(
                grid_rows=config.grid_rows,
                grid_cols=config.grid_cols,
                auto_expand_grid=config.auto_expand_grid,
                max_grid_dim=config.max_grid_dim,
                seed=config.seed,
            )
        ),
        "heuristic",
    )


def synthesize(
    graph: SequencingGraph,
    config: Optional[FlowConfig] = None,
    library: Optional[DeviceLibrary] = None,
) -> SynthesisResult:
    """Run the complete flow (schedule → architecture → layout) on an assay.

    A convenience wrapper over :class:`~repro.synthesis.pipeline.
    SynthesisPipeline` that runs all three stages without a cache.  Callers
    that want stage-granular reuse (parameter sweeps, warm re-runs) go
    through the batch engine, the one code that reads and writes stage keys.

    Parameters
    ----------
    graph:
        The assay's sequencing graph; it is validated before anything runs.
    config:
        Flow configuration; defaults to :class:`FlowConfig` defaults.
    library:
        Optional explicit device library; by default one is built from the
        configuration's device counts.

    Returns
    -------
    SynthesisResult
        Schedule, architecture, physical design and per-stage runtimes.
    """
    # Imported here: pipeline imports this module for the result type and
    # the engine builders, so the dependency must stay one-directional at
    # import time.
    from repro.synthesis.pipeline import SynthesisPipeline

    return SynthesisPipeline().run(graph, config=config, library=library)
