"""End-to-end synthesis pipeline (the paper's complete flow).

The flow is an explicit staged pipeline
(:class:`~repro.synthesis.pipeline.SynthesisPipeline`): scheduling & binding
with storage minimization (:class:`~repro.synthesis.pipeline.ScheduleStage`),
architectural synthesis with distributed channel storage
(:class:`~repro.synthesis.pipeline.ArchSynthStage`), and iterative physical
compression (:class:`~repro.synthesis.pipeline.PhysicalStage`).  Each stage
produces a typed, serializable artifact with a content-addressed cache key,
and :class:`SynthesisResult` is a thin view assembled from the three
artifacts.  :func:`synthesize` remains the one-call convenience entry point.
"""

from repro.synthesis.config import FlowConfig, SchedulerEngine, SynthesisEngine
from repro.synthesis.flow import SynthesisResult, synthesize
from repro.synthesis.metrics import FlowMetrics, collect_metrics
from repro.synthesis.pipeline import (
    ArchitectureArtifact,
    ArchSynthStage,
    PhysicalArtifact,
    PhysicalStage,
    ScheduleArtifact,
    ScheduleStage,
    StageExecution,
    SynthesisPipeline,
)
from repro.synthesis.report import format_table2_row, table2_header, result_report

__all__ = [
    "ArchitectureArtifact",
    "ArchSynthStage",
    "FlowConfig",
    "PhysicalArtifact",
    "PhysicalStage",
    "ScheduleArtifact",
    "ScheduleStage",
    "SchedulerEngine",
    "StageExecution",
    "SynthesisEngine",
    "SynthesisPipeline",
    "SynthesisResult",
    "synthesize",
    "FlowMetrics",
    "collect_metrics",
    "format_table2_row",
    "table2_header",
    "result_report",
]
