"""Aggregated reporting for batch runs (Table-2-style rows + batch totals).

Since the staged refactor every :class:`JobOutcome` carries its per-stage
execution trail (:class:`~repro.synthesis.pipeline.StageExecution`): which
stages actually *ran* a solver, which were *replayed* from the cache, and
which were *shared* with another job of the same batch.
:meth:`BatchReport.stage_summary` aggregates the trail across the batch —
the number a sweep user cares about is "how many scheduling solves did this
grid cost me", and it is printed with every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.batch.cache import CacheStats
from repro.ilp.solver import SolveRecord
from repro.synthesis.flow import SynthesisResult
from repro.synthesis.metrics import FlowMetrics, collect_metrics
from repro.synthesis.pipeline import StageExecution
from repro.synthesis.report import format_table2_row, table2_header


def _provenance(solve: Optional[SolveRecord]) -> Dict[str, Any]:
    """A stage's ``backend``/``status``/``objective``/``bound``/``mip_gap``/
    ``warm_start_used`` keys, from its :class:`SolveRecord` (``None`` and
    ``False`` for a solver-free stage)."""
    return {
        "backend": solve.backend if solve else None,
        "status": solve.status.value if solve else None,
        "objective": solve.objective if solve else None,
        "bound": solve.bound if solve else None,
        "mip_gap": solve.mip_gap if solve else None,
        "warm_start_used": bool(solve and solve.warm_start_used),
    }


@dataclass
class JobOutcome:
    """What happened to one job of a batch.

    Exactly one of ``result`` / ``error`` is set.  ``cache_hit`` records
    whether the job completed without executing a single stage (every
    artifact came from the :class:`~repro.batch.cache.ResultCache` or was
    shared); ``wall_time_s`` is the time the job spent on stages it ran
    itself (zero for cache hits).  ``stages`` is the per-stage trail, in
    pipeline order; it is empty for jobs resolved from the failure memo or
    the assembled-result tier (nothing was even planned for those).
    """

    job_id: str
    cache_key: str
    result: Optional[SynthesisResult] = None
    error: Optional[str] = None
    cache_hit: bool = False
    wall_time_s: float = 0.0
    #: The submitted job's own graph name.  The cache key deliberately
    #: ignores names, so a content-aliased job may share a result whose
    #: ``graph.name`` belongs to another job; metrics are relabeled with
    #: this so every report row shows its own assay.
    graph_name: Optional[str] = None
    stages: List[StageExecution] = field(default_factory=list)
    #: Per-stage span digests from the run's trace recorder (empty unless
    #: tracing was enabled): ``{name, duration_s, action, key}`` rows that
    #: tie this job's stages to spans in the exported trace.
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the job produced a result (as opposed to an error)."""
        return self.result is not None

    def stage_tag(self) -> str:
        """Compact per-job stage trail, e.g. ``S=hit A=ran P=ran``."""
        if not self.stages:
            return "result=hit" if self.cache_hit else ""
        marks = {"ran": "ran", "replayed": "hit", "shared": "shr"}
        return " ".join(
            f"{e.stage[:5]}={marks.get(e.action, e.action)}" for e in self.stages
        )

    def metrics(self) -> FlowMetrics:
        """Table-2 metrics of the result, relabeled with this job's assay.

        Raises
        ------
        ValueError
            When the job failed (there is no result to measure).
        """
        if self.result is None:
            raise ValueError(f"job {self.job_id!r} failed: {self.error}")
        metrics = collect_metrics(self.result)
        if self.graph_name is not None and metrics.assay != self.graph_name:
            metrics = replace(metrics, assay=self.graph_name)
        return metrics

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable form of this outcome (no result object inside).

        One shared shape for every machine-readable surface: the CLI's
        ``--json`` files and the synthesis service's ``GET /jobs/{id}/result``
        responses are built from exactly this, so downstream tooling parses
        one format.  Failed jobs carry ``error`` and a ``null`` metrics
        block.  Jobs whose config enabled the verify stage additionally
        carry a ``verification`` block — the Monte-Carlo makespan
        distribution (p50/p95/p99), fault-recovery rate, and the
        deterministic replay's propagated diagnostics.  Runs with tracing
        enabled additionally carry a ``spans`` list (per-stage span
        digests linking the payload to the exported trace).
        """
        verification = None
        if self.ok and getattr(self.result, "verification", None) is not None:
            verification = self.result.verification.as_dict()
            verification["simulation_problems"] = list(
                self.result.simulation_problems or []
            )
        extra: Dict[str, Any] = {}
        if self.spans:
            extra["spans"] = list(self.spans)
        return {
            "id": self.job_id,
            "cache_key": self.cache_key,
            "cache_hit": self.cache_hit,
            "wall_time_s": round(self.wall_time_s, 3),
            "error": self.error,
            "stages": [
                {
                    "stage": execution.stage,
                    "action": execution.action,
                    "wall_time_s": round(execution.wall_time_s, 3),
                    **_provenance(execution.solve),
                }
                for execution in self.stages
            ],
            "metrics": self.metrics().as_dict() if self.ok else None,
            "verification": verification,
            **extra,
        }


@dataclass
class BatchReport:
    """Outcome of one :meth:`BatchSynthesisEngine.run` call.

    Outcomes appear in job submission order regardless of worker count, so a
    parallel run is directly comparable to a serial one.  ``cache_stats`` is
    the per-batch delta of the cache's counters (a shared cache serves many
    batches; each report describes only its own lookups).
    """

    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_time_s: float = 0.0
    max_workers: int = 1
    cache_stats: Optional[CacheStats] = None

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def outcome(self, job_id: str) -> JobOutcome:
        """The outcome with ``job_id``; :class:`KeyError` when absent."""
        for outcome in self.outcomes:
            if outcome.job_id == job_id:
                return outcome
        raise KeyError(f"no job {job_id!r} in this batch")

    def results(self) -> List[SynthesisResult]:
        """Successful results in job order (failed jobs are skipped)."""
        return [o.result for o in self.outcomes if o.result is not None]

    @property
    def num_failed(self) -> int:
        """Number of jobs that ended in an error."""
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def num_cache_hits(self) -> int:
        """Jobs that completed without executing a single stage."""
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def num_executed(self) -> int:
        """Jobs that ran at least one stage themselves (full hits excluded)."""
        return sum(1 for o in self.outcomes if not o.cache_hit)

    @property
    def total_makespan(self) -> int:
        """Sum of the successful jobs' schedule makespans."""
        return sum(o.result.schedule.makespan for o in self.outcomes if o.result is not None)

    def stage_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage aggregate: how many jobs ran / replayed / shared it.

        ``ran`` counts actual solver executions this batch paid for;
        ``replayed`` counts artifacts served from the cache; ``shared``
        counts jobs that rode along on another job's execution within this
        batch.  ``wall_time_s`` sums the execution time of the ``ran``
        entries — the real cost of the stage across the batch.
        ``backends`` counts, per solver backend, how many of the stage's
        artifacts it produced (heuristic stages report no backend and are
        absent from the map); ``warm_starts`` counts artifacts whose solve
        consumed or returned a warm-start incumbent.
        """
        summary: Dict[str, Dict[str, Any]] = {}
        for outcome in self.outcomes:
            for execution in outcome.stages:
                row = summary.setdefault(
                    execution.stage,
                    {"ran": 0, "replayed": 0, "shared": 0, "wall_time_s": 0.0,
                     "backends": {}, "warm_starts": 0},
                )
                row[execution.action] += 1
                if execution.action == "ran":
                    row["wall_time_s"] += execution.wall_time_s
                solve = execution.solve
                if solve is not None and solve.backend is not None:
                    row["backends"][solve.backend] = row["backends"].get(solve.backend, 0) + 1
                row["warm_starts"] += bool(solve and solve.warm_start_used)
        for row in summary.values():
            row["wall_time_s"] = round(row["wall_time_s"], 3)
        return summary

    # ----------------------------------------------------------- formatting
    def summary(self) -> Dict[str, Any]:
        """Batch totals plus the per-stage breakdown, JSON-serializable."""
        return {
            "jobs": len(self.outcomes),
            "failed": self.num_failed,
            "cache_hits": self.num_cache_hits,
            "executed": self.num_executed,
            "total_makespan": self.total_makespan,
            "wall_time_s": round(self.wall_time_s, 3),
            "max_workers": self.max_workers,
            "stages": self.stage_summary(),
            # Per-tier hit/miss and single-flight claim counters for this
            # batch; flows verbatim into the service result payload.
            "cache": self.cache_stats.as_dict()
            if self.cache_stats is not None
            else None,
        }

    def to_json_payload(self) -> Dict[str, Any]:
        """The whole report as one JSON-serializable payload.

        ``{"summary": ..., "jobs": [...], "metrics": {...}}`` with the
        batch totals of :meth:`summary`, one :meth:`JobOutcome.payload` per
        job in submission order, and a snapshot of the process-wide
        observability registry (:mod:`repro.obs.metrics`) so ``--json``
        consumers see operational counters next to the results.  Written
        verbatim by ``repro batch --json`` and returned verbatim by the
        synthesis service's result endpoint.
        """
        from repro.obs.metrics import get_registry

        return {
            "summary": self.summary(),
            "jobs": [outcome.payload() for outcome in self.outcomes],
            "metrics": get_registry().snapshot(),
        }


def format_stage_summary(report: BatchReport) -> str:
    """The per-stage breakdown as printable lines (one per stage).

    The smoke tests grep these lines — e.g. a warm sweep must show
    ``stage schedule: 0 ran`` — so the format is stable: counts first,
    timing last.
    """
    summary = report.stage_summary()
    if not summary:
        return ""
    lines = []
    for stage_name, row in summary.items():
        lines.append(
            f"stage {stage_name}: {row['ran']} ran, {row['replayed']} replayed, "
            f"{row['shared']} shared, {row['wall_time_s']:.2f} s solve time"
        )
    return "\n".join(lines)


def format_batch_report(report: BatchReport) -> str:
    """Human-readable batch report: Table 2 rows plus batch totals."""
    lines: List[str] = []
    lines.append("job".ljust(12) + " " + table2_header() + " " + "stages".ljust(6))
    for outcome in report.outcomes:
        if outcome.result is None:
            lines.append(f"{outcome.job_id:<12} FAILED: {outcome.error}")
            continue
        row = format_table2_row(outcome.metrics())
        lines.append(f"{outcome.job_id:<12} {row} {outcome.stage_tag()}")
    stage_lines = format_stage_summary(report)
    if stage_lines:
        lines.append(stage_lines)
    stats = report.cache_stats
    cache_line = ""
    if stats is not None:
        shared = f", {stats.shared_hits} shared" if stats.shared_hits else ""
        cache_line = (
            f", cache {stats.hits}/{stats.lookups} hits"
            f" ({stats.memory_hits} memory, {stats.disk_hits} disk{shared})"
        )
    lines.append(
        f"batch: {len(report.outcomes)} jobs ({report.num_failed} failed), "
        f"{report.num_cache_hits} served from cache, "
        f"{report.wall_time_s:.2f} s wall clock on {report.max_workers} worker(s)"
        + cache_line
    )
    return "\n".join(lines)
