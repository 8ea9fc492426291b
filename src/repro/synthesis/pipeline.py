"""Staged synthesis pipeline: typed artifacts + per-stage cache keys.

The paper's flow is inherently staged — scheduling/binding, architectural
synthesis (placement + routing), physical design — and this module makes the
stages explicit instead of hiding them inside one opaque ``synthesize()``
call:

* :class:`ScheduleStage` → :class:`ScheduleArtifact` (the bound, timed
  schedule);
* :class:`ArchSynthStage` → :class:`ArchitectureArtifact` (the placed and
  routed connection grid);
* :class:`PhysicalStage` → :class:`PhysicalArtifact` (the scaled, expanded
  and compacted layout);
* :class:`VerifyStage` → :class:`VerificationArtifact` (optional, when
  ``FlowConfig.verify`` is set: the Monte-Carlo makespan distribution and
  fault-recovery report, keyed off the archsyn key).

Each stage declares the exact slice of :class:`FlowConfig` fields it
consumes (:attr:`Stage.config_fields`), and its cache key is::

    sha256(KEY_VERSION, stage name, upstream artifact hash, config slice)

where the first stage's upstream hash is the canonical graph fingerprint and
every later stage's upstream hash is its predecessor's *key* (the stages are
deterministic, so the key of an artifact is a faithful content address for
it).  Changing only a routing knob therefore leaves the schedule key — and
any cached :class:`ScheduleArtifact` — untouched, and changing only
physical-design parameters reuses schedule *and* architecture.  This is the
seam the batch engine (:mod:`repro.batch.engine`) memoizes and parallelizes
at, and :class:`~repro.synthesis.flow.SynthesisResult` is just a thin view
assembled from the three artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.devices.device import DeviceLibrary
from repro.graph.sequencing_graph import SequencingGraph
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.graph.serialization import canonical_graph_dict
from repro.graph.validation import assert_valid
from repro.ilp.solver import SolveRecord
from repro import keys
from repro.keys import stable_digest
from repro.physical.pipeline import PhysicalDesignConfig, PhysicalDesignResult, build_physical_design
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import (
    SynthesisResult,
    _build_scheduler,
    _build_synthesizer,
    build_library,
)

# -------------------------------------------------------------------- artifacts


@dataclass
class ScheduleArtifact:
    """Output of :class:`ScheduleStage`: the bound, timed schedule.

    The wall time of the original solve travels with the artifact, so a
    replayed schedule reports the solver time that actually produced it
    (mirroring the run-level cache semantics of PR 1).
    """

    schedule: Any  # repro.scheduling.schedule.Schedule
    scheduler_engine: str
    scheduling_time_s: float


@dataclass
class ArchitectureArtifact:
    """Output of :class:`ArchSynthStage`: the placed and routed grid."""

    architecture: Any  # repro.archsyn.architecture.ChipArchitecture
    synthesis_engine: str
    synthesis_time_s: float


@dataclass
class PhysicalArtifact:
    """Output of :class:`PhysicalStage`: all three layout steps."""

    physical: PhysicalDesignResult


@dataclass
class VerificationArtifact:
    """Output of :class:`VerifyStage`: the Monte-Carlo distribution report.

    ``simulation_problems`` carries the deterministic replay's diagnostics
    (:attr:`repro.simulation.simulator.SimulationResult.problems`); it is
    empty in every artifact that exists, because a non-empty list fails the
    stage with :class:`VerificationError` instead of producing one — but it
    travels in the payload so downstream consumers see the check happened.
    """

    report: Any  # repro.simulation.montecarlo.VerificationReport
    verification_time_s: float
    simulation_problems: List[str] = None  # type: ignore[assignment]
    simulation_transports: int = 0
    simulation_storage_intervals: int = 0

    def __post_init__(self) -> None:
        if self.simulation_problems is None:
            self.simulation_problems = []


class VerificationError(RuntimeError):
    """A verification stage failed: the deterministic replay found conflicts.

    Raised with the full list of simulator diagnostics so a batch report
    (which memoizes the failure under the stage key) points straight at the
    offending resource reservations instead of a bare "stage failed".
    """

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__(
            "simulation replay found conflicts: " + "; ".join(self.problems)
        )


@dataclass
class StageContext:
    """Everything a stage may read besides its upstream artifact.

    ``warm_start`` is an optional known-good schedule of the same graph
    (from a neighboring configuration) handed to the schedule stage as a
    solver seed.  It is runtime advice only and never enters any cache key;
    a hint that does not fit the current configuration is ignored.  A warm
    start never changes the status or objective of a completed solve, only
    its node count; under a time or node limit it can change the returned
    incumbent (see :class:`~repro.ilp.WarmStart`).
    """

    graph: SequencingGraph
    config: FlowConfig
    library: DeviceLibrary
    warm_start: Optional[Any] = None  # repro.scheduling.schedule.Schedule


@dataclass(frozen=True)
class StageExecution:
    """How one stage of one job was satisfied (for batch reporting).

    ``action`` is ``"ran"`` (this job paid for the execution), ``"replayed"``
    (served from the stage cache) or ``"shared"`` (computed once for another
    job of the same batch and shared).  ``solve`` is the record of the
    exact solve that produced the stage's artifact (regardless of which job
    paid for it; ``None`` for heuristic stages, the physical and verify
    stages, and failed executions) — see :func:`solve_record`.
    """

    stage: str
    key: str
    action: str
    wall_time_s: float = 0.0
    solve: Optional[SolveRecord] = None


def solve_record(artifact: Any) -> Optional[SolveRecord]:
    """The exact solve behind a stage artifact, or ``None``."""
    if isinstance(artifact, ScheduleArtifact):
        return artifact.schedule.solve
    if isinstance(artifact, ArchitectureArtifact):
        return artifact.architecture.solve
    return None


# ----------------------------------------------------------------------- stages


class Stage:
    """One step of the synthesis pipeline.

    Subclasses set :attr:`name`, declare the :class:`FlowConfig` fields they
    consume in :attr:`config_fields` (the *only* fields that enter their
    cache key — a stage whose slice is untouched by a config change replays
    its cached artifact), and implement :meth:`run`.
    """

    name: str = ""
    config_fields: Tuple[str, ...] = ()
    #: Index of the planned stage whose *key* is this stage's upstream hash;
    #: ``None`` chains off the immediately preceding stage.  The verify
    #: stage sets this to the archsyn tier so physical-only config changes
    #: (pitch, spacing) never invalidate cached verification reports.
    upstream_tier: Optional[int] = None

    def config_slice(self, config: FlowConfig) -> Dict[str, Any]:
        data = config.to_dict()
        return {field: data[field] for field in self.config_fields}

    def upstream_for(self, artifacts: Sequence[Any]) -> Any:
        """The upstream value :meth:`run` receives, given prior artifacts."""
        return artifacts[-1] if artifacts else None

    def key(self, upstream_hash: str, config: FlowConfig) -> str:
        return stable_digest(
            {
                "version": keys.KEY_VERSION,
                "stage": self.name,
                "upstream": upstream_hash,
                "config": self.config_slice(config),
            }
        )

    def run(self, context: StageContext, upstream: Any) -> Any:
        raise NotImplementedError


class ScheduleStage(Stage):
    """Scheduling & binding (Section 3.1): operations → devices → times."""

    name = "schedule"
    config_fields = (
        "num_mixers",
        "num_detectors",
        "num_heaters",
        "scheduler",
        "transport_time",
        "alpha",
        "beta",
        "storage_aware",
        "ilp_time_limit_s",
        "ilp_operation_limit",
        "scheduler_backend",
        "mip_rel_gap",
    )

    def run(self, context: StageContext, upstream: None) -> ScheduleArtifact:
        scheduler, scheduler_name = _build_scheduler(
            context.config, context.library, context.graph
        )
        start = time.perf_counter()
        if scheduler_name == "ilp" and context.warm_start is not None:
            schedule = scheduler.schedule(context.graph, warm_hint=context.warm_start)
        else:
            schedule = scheduler.schedule(context.graph)
        elapsed = time.perf_counter() - start
        return ScheduleArtifact(
            schedule=schedule,
            scheduler_engine=scheduler_name,
            scheduling_time_s=elapsed,
        )


class ArchSynthStage(Stage):
    """Architectural synthesis (Section 3.2): placement + routing."""

    name = "archsyn"
    config_fields = (
        "synthesis",
        "grid_rows",
        "grid_cols",
        "auto_expand_grid",
        "max_grid_dim",
        "archsyn_time_limit_s",
        "archsyn_backend",
        "mip_rel_gap",
        "seed",
    )

    def run(self, context: StageContext, upstream: ScheduleArtifact) -> ArchitectureArtifact:
        synthesizer, synthesis_name = _build_synthesizer(context.config)
        start = time.perf_counter()
        architecture = synthesizer.synthesize(upstream.schedule)
        elapsed = time.perf_counter() - start
        return ArchitectureArtifact(
            architecture=architecture,
            synthesis_engine=synthesis_name,
            synthesis_time_s=elapsed,
        )


class PhysicalStage(Stage):
    """Physical design (Section 3.3): scaling → device insertion → compaction.

    The device counts appear in this stage's slice because device insertion
    reads the library's footprints; they also feed the schedule stage, so
    changing them invalidates the whole chain (as it must).
    """

    name = "physical"
    config_fields = (
        "pitch",
        "storage_segment_length",
        "min_channel_spacing",
        "num_mixers",
        "num_detectors",
        "num_heaters",
    )

    def run(self, context: StageContext, upstream: ArchitectureArtifact) -> PhysicalArtifact:
        config = context.config
        physical = build_physical_design(
            upstream.architecture,
            context.library,
            PhysicalDesignConfig(
                pitch=config.pitch,
                storage_segment_length=config.storage_segment_length,
                min_channel_spacing=config.min_channel_spacing,
            ),
        )
        return PhysicalArtifact(physical=physical)


class VerifyStage(Stage):
    """Stochastic verification: Monte-Carlo replay of the bound schedule.

    Runs after physical design but consumes only the schedule and the
    architecture, so its cache key chains off the *archsyn* key
    (:attr:`upstream_tier`): a pitch-only sweep replays cached verification
    reports just like it replays cached schedules.

    Before sampling, the deterministic :class:`~repro.simulation.simulator.
    ChipSimulator` replay runs once; any resource conflict it reports
    (``SimulationResult.problems``) fails the stage with a
    :class:`VerificationError` carrying the diagnostics — the conflicts
    used to be silently dropped.
    """

    name = "verify"
    config_fields = (
        "verify",
        "verify_trials",
        "verify_seed",
        "verify_jitter",
        "verify_jitter_spread",
        "verify_fault_rate",
        "verify_channel_fault_rate",
        "verify_max_retries",
        "verify_wash_time",
        "transport_time",
    )
    upstream_tier = 1  # chain off the archsyn key, not the physical key

    def upstream_for(self, artifacts: Sequence[Any]) -> Any:
        """The (schedule, architecture) artifact pair verification reads."""
        return (artifacts[0], artifacts[1])

    def run(self, context: StageContext, upstream: Any) -> VerificationArtifact:
        # Imported here: repro.simulation has no pipeline dependency and
        # must stay importable on its own (it predates the stage).
        from repro.simulation.montecarlo import MonteCarloConfig, MonteCarloEngine
        from repro.simulation.simulator import ChipSimulator

        schedule_art, arch_art = upstream
        start = time.perf_counter()
        replay = ChipSimulator(schedule_art.schedule, arch_art.architecture).run()
        if not replay.is_valid:
            raise VerificationError(replay.problems)
        report = MonteCarloEngine(
            schedule_art.schedule,
            context.library,
            MonteCarloConfig.from_flow_config(context.config),
        ).run()
        return VerificationArtifact(
            report=report,
            verification_time_s=time.perf_counter() - start,
            simulation_problems=list(replay.problems),
            simulation_transports=replay.total_transports,
            simulation_storage_intervals=replay.total_storage_intervals,
        )


#: Stage singletons (stages are stateless) in pipeline order.
SCHEDULE_STAGE = ScheduleStage()
ARCHSYN_STAGE = ArchSynthStage()
PHYSICAL_STAGE = PhysicalStage()
VERIFY_STAGE = VerifyStage()
DEFAULT_STAGES: Tuple[Stage, ...] = (SCHEDULE_STAGE, ARCHSYN_STAGE, PHYSICAL_STAGE)
STAGES_BY_NAME: Dict[str, Stage] = {
    stage.name: stage for stage in DEFAULT_STAGES + (VERIFY_STAGE,)
}


def stage_by_name(name: str) -> Stage:
    """Resolve a stage singleton by name (used by pool worker payloads)."""
    try:
        return STAGES_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown pipeline stage {name!r}") from None


# --------------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class PlannedStage:
    """One stage of a concrete job plus its content-addressed key."""

    stage: Stage
    key: str


def graph_fingerprint(graph: SequencingGraph) -> str:
    """Canonical content hash of a graph (name excluded, order-invariant)."""
    payload = canonical_graph_dict(graph)
    payload.pop("name", None)
    return stable_digest({"version": keys.KEY_VERSION, "graph": payload})


class SynthesisPipeline:
    """The explicit stage chain: plans keys, runs stages without a cache.

    :meth:`plan` derives each stage's content-addressed key; :meth:`run`
    executes the chain and assembles a :class:`SynthesisResult`.  The stage
    cache is read and written only by the batch engine's tier runner
    (:class:`repro.batch.engine.BatchSynthesisEngine`), which resolves every
    planned key against it tier by tier; never by this class.
    """

    def stages_for(self, config: FlowConfig) -> Tuple[Stage, ...]:
        """The stage chain one concrete config runs: the default three,
        plus the Monte-Carlo verification stage when ``config.verify``."""
        if config.verify:
            return DEFAULT_STAGES + (VERIFY_STAGE,)
        return DEFAULT_STAGES

    def plan(
        self,
        graph: SequencingGraph,
        config: FlowConfig,
        graph_hash: Optional[str] = None,
    ) -> List[PlannedStage]:
        """The stage/key chain of one job, without executing anything.

        ``graph_hash`` lets callers that already computed the graph's
        :func:`graph_fingerprint` (the batch engine computes it once per
        job, for the run-level key) skip re-canonicalizing the graph.
        Stages with an explicit :attr:`Stage.upstream_tier` chain off that
        tier's key instead of their predecessor's.
        """
        root = graph_hash if graph_hash is not None else graph_fingerprint(graph)
        planned: List[PlannedStage] = []
        keys_so_far: List[str] = []
        for stage in self.stages_for(config):
            if not keys_so_far:
                upstream = root
            elif stage.upstream_tier is not None:
                upstream = keys_so_far[stage.upstream_tier]
            else:
                upstream = keys_so_far[-1]
            key = stage.key(upstream, config)
            planned.append(PlannedStage(stage=stage, key=key))
            keys_so_far.append(key)
        return planned

    def run(
        self,
        graph: SequencingGraph,
        config: Optional[FlowConfig] = None,
        library: Optional[DeviceLibrary] = None,
        warm_start: Optional[Any] = None,
    ) -> SynthesisResult:
        """Run every stage in order and assemble a :class:`SynthesisResult`.

        ``library`` overrides the device library built from ``config``;
        ``warm_start`` is an optional schedule of the same graph that seeds
        the schedule stage's solver (see :class:`StageContext`).
        """
        config = config or FlowConfig()
        assert_valid(graph)
        library = library or build_library(config)
        context = StageContext(
            graph=graph, config=config, library=library, warm_start=warm_start
        )
        artifacts: List[Any] = []
        for stage in self.stages_for(config):
            start = time.perf_counter()
            with obs_span(
                f"stage:{stage.name}", category="stage", stage=stage.name, action="ran"
            ):
                artifacts.append(stage.run(context, stage.upstream_for(artifacts)))
            obs_metrics.stage_wall_histogram().observe(
                time.perf_counter() - start, stage=stage.name, action="ran"
            )

        schedule_art, arch_art, physical_art = artifacts[:3]
        return SynthesisResult.from_artifacts(
            graph=graph,
            library=library,
            config=config,
            schedule_artifact=schedule_art,
            architecture_artifact=arch_art,
            physical_artifact=physical_art,
            verification_artifact=artifacts[3] if len(artifacts) > 3 else None,
        )
