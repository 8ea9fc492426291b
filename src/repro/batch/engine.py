"""The batch-synthesis engine: fan out per stage, cache, aggregate.

The engine takes a list of :class:`~repro.batch.jobs.BatchJob` and produces a
:class:`~repro.batch.report.BatchReport` whose outcomes are in job order, no
matter how many workers ran them.  Execution is **stage-granular**: every job
is planned into its :class:`~repro.synthesis.pipeline.SynthesisPipeline`
stage/key chain, and the stages run tier by tier (all schedule solves, then
all architecture syntheses, then all physical designs):

* within each tier, jobs sharing a stage key — e.g. the points of a sweep
  that only varies physical-design knobs — are solved **once**; the others
  share the artifact ("shared" in the report);
* stage keys already in the :class:`~repro.batch.cache.ResultCache` are
  replayed without running anything ("replayed");
* with ``max_workers > 1`` the unique stage executions of a tier fan out
  over a ``ProcessPoolExecutor`` — each worker receives the serialized graph
  and config plus the pickled upstream artifact and sends back the pickled
  stage artifact.  With one worker everything runs inline, which keeps
  tracebacks simple and lets tests monkeypatch the stage classes to count
  or fail solver runs.

Because each tier's artifacts are stored in the cache the moment the tier
completes, a batch interrupted by a worker crash resumes from the last
completed stage on the next run: the schedule that solved before the crash
is replayed, not re-solved.

Failures are captured per job (``JobOutcome.error``) rather than aborting
the batch — one infeasible assay must not take down a many-user batch — and
never poison the cache.

This tier runner is the only code that resolves stage keys against the
cache: :meth:`BatchSynthesisEngine.run_one` runs it on a one-job batch,
:meth:`BatchSynthesisEngine.run_schedule_stage` runs its first tier alone
(the exploration engine's schedule-only triage pass), and
:class:`~repro.synthesis.pipeline.SynthesisPipeline` itself never touches a
cache.  A stage-key miss *claims* the key (the cache is single-flight); the
runner then either stores the artifact with ``put`` or, on every other
exit, releases the claim with ``abandon``, so a concurrent engine sharing
the cache never waits out the claim timeout for an artifact that is never
coming.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batch.cache import ResultCache, cache_key
from repro.batch.jobs import BatchJob
from repro.batch.report import BatchReport, JobOutcome
from repro.devices.device import DeviceLibrary
from repro.graph.serialization import graph_from_dict, graph_to_dict
from repro.ilp import SolverLimitError
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.trace import (
    SpanContext,
    TraceRecorder,
    current_context,
    install_recorder,
    recorder as obs_recorder,
    span as obs_span,
    uninstall_recorder,
)
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import SynthesisResult, build_library
from repro.synthesis.pipeline import (
    PlannedStage,
    StageContext,
    StageExecution,
    SynthesisPipeline,
    graph_fingerprint,
    solve_record,
    stage_by_name,
)


_LOG = get_logger("batch")


def _execute_stage_serialized(
    payload: Tuple[str, Dict[str, Any], Dict[str, Any], Any, Optional[Tuple[str, str]]]
) -> Tuple[bool, Any, float, List[Dict[str, Any]]]:
    """Worker-side single-stage execution (module-level so it pickles on spawn).

    The graph is shipped in insertion-order form (:func:`graph_to_dict`) —
    the cheapest faithful serialization.  Synthesis output is
    insertion-order invariant (the schedulers order operations by graph
    structure, and the content-addressed cache keys rely on exactly that),
    so parallel results match serial ones regardless of the form shipped.
    The upstream artifact rides along pickled by the pool itself.  Returns
    ``(ok, artifact_or_error, elapsed, spans)`` with the worker-measured
    stage time, so per-stage timings — for failures just as for successes —
    are not distorted by pool queueing.  Failures come back as a detached
    exception (formatted traceback attached as a string) rather than
    raising, so they pickle cleanly and carry their timing along.

    ``payload``'s final element is the dispatching engine's trace context —
    ``(serialized SpanContext, abbreviated stage key)`` or ``None`` when
    tracing is off.  With a context, the worker records its stage span into
    a child :class:`TraceRecorder` parented under the dispatcher's span and
    ships the finished spans back (the ``spans`` element) for
    :meth:`TraceRecorder.absorb`, so a pooled solve lands on the same
    timeline as an inline one.

    Warm-start hints (:attr:`BatchJob.warm_hint`) are *not* shipped to the
    pool: they are runtime advice with no effect on cache keys, and an
    unseeded pool solve is merely slower, never wrong.  Callers that rely on
    warm starts (the exploration engine) run inline.
    """
    stage_name, graph_data, config_data, upstream, trace_info = payload
    stage = stage_by_name(stage_name)
    graph = graph_from_dict(graph_data)
    config = FlowConfig.from_dict(config_data)
    context = StageContext(graph=graph, config=config, library=build_library(config))
    child: Optional[TraceRecorder] = None
    token = None
    if trace_info is not None:
        parent = SpanContext.deserialize(trace_info[0])
        if parent is not None:
            child = TraceRecorder(parent=parent)
            token = install_recorder(child)
    start = time.perf_counter()
    try:
        with obs_span(
            f"stage:{stage_name}",
            category="stage",
            stage=stage_name,
            action="ran",
            key=trace_info[1] if trace_info else "",
            worker="process",
        ):
            artifact = stage.run(context, upstream)
    except Exception as exc:  # noqa: BLE001 - shipped back, captured per job
        elapsed = time.perf_counter() - start
        spans = child.serialized_spans() if child is not None else []
        if token is not None:
            uninstall_recorder(token)
        return False, _detached_failure(exc), elapsed, spans
    elapsed = time.perf_counter() - start
    spans = child.serialized_spans() if child is not None else []
    if token is not None:
        uninstall_recorder(token)
    return True, artifact, elapsed, spans


def _error_message(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _detached_failure(exc: BaseException) -> BaseException:
    """A traceback-free copy of ``exc``, safe to memoize and re-raise.

    Storing (or re-raising) the live exception object would pin the failed
    solver run's whole frame stack in the cache and grow the shared object's
    traceback on every re-raise.  The copy keeps the original type when the
    exception reconstructs faithfully from its ``args``; otherwise it falls
    back to a ``RuntimeError`` carrying the formatted message.  The original
    failure's *formatted* traceback travels along as a string — attached as
    an exception note (3.11+) so it prints with the re-raise — preserving
    debuggability without keeping any frame alive.
    """
    try:
        clone = type(exc)(*exc.args)
        if str(clone) != str(exc):
            raise ValueError("lossy reconstruction")
    except Exception:  # noqa: BLE001 - any exotic signature falls back
        clone = RuntimeError(_error_message(exc))
    tb_text = getattr(exc, "_original_traceback", None)
    if tb_text is None and exc.__traceback__ is not None:
        tb_text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    if tb_text:
        clone._original_traceback = tb_text
        if hasattr(clone, "add_note"):  # Python >= 3.11
            clone.add_note("original failure traceback:\n" + tb_text.rstrip())
    return clone


def _graph_fingerprints(jobs: Sequence[BatchJob]) -> List[str]:
    """Each job's :func:`graph_fingerprint`, one canonicalization per graph.

    Manifest jobs built from one spec share a graph object (a sweep's points
    all do), so the memo is keyed by identity; ``jobs`` keeps every graph
    alive for the call, so no id is reused.
    """
    memo: Dict[int, str] = {}
    fingerprints = []
    for job in jobs:
        key = id(job.graph)
        if key not in memo:
            memo[key] = graph_fingerprint(job.graph)
        fingerprints.append(memo[key])
    return fingerprints


@dataclass
class _PendingJob:
    """Book-keeping for one job that was not fully resolved up front."""

    index: int
    job: BatchJob
    run_key: str
    plan: List[PlannedStage]
    library: DeviceLibrary
    artifacts: List[Any] = field(default_factory=list)
    executions: List[StageExecution] = field(default_factory=list)
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def ran_time_s(self) -> float:
        """Time this job spent on stages it executed itself."""
        return sum(e.wall_time_s for e in self.executions if e.action == "ran")


class BatchSynthesisEngine:
    """Run many independent synthesis jobs with stage caching and parallelism.

    Parameters
    ----------
    max_workers:
        Process count for stage execution.  ``1`` (the default) runs
        inline; higher values fan each tier's unique stage executions out
        over a process pool.
    cache:
        Shared :class:`ResultCache`; a private in-memory cache is created
        when omitted.  Passing an explicit cache lets several engines (or
        repeated CLI invocations via a disk tier) share stage artifacts.
    fail_fast:
        When true, the first job failure raises instead of being recorded in
        the report.

    A failed job's exception is memoized in the cache's memory tier and
    replayed for identical jobs instead of re-running the solver.  Only
    deterministic failures are memoized: limit-induced solver failures
    (:class:`SolverLimitError`) and worker crashes are load-dependent, so
    those always re-run.
    """

    def __init__(
        self,
        max_workers: int = 1,
        cache: Optional[ResultCache] = None,
        fail_fast: bool = False,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers
        self.cache = cache if cache is not None else ResultCache()
        self.fail_fast = fail_fast
        self.pipeline = SynthesisPipeline()

    def _record_failure(self, key: str, exc: BaseException) -> None:
        # A SolverLimitError depends on machine load, not on the job's
        # content — an identical re-run may succeed, so it is never memoized.
        if not isinstance(exc, SolverLimitError):
            self.cache.put_failure(key, _detached_failure(exc))

    # ------------------------------------------------------------------- api
    def run(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Execute ``jobs`` and return their outcomes in submission order."""
        return self._run(jobs, self.fail_fast)

    def run_one(self, job: BatchJob) -> SynthesisResult:
        """Run a single job through :meth:`run`'s tier runner; return its result.

        A cache hit returns the cached :class:`SynthesisResult` object
        itself.  A failure raises instead of producing a report row, as
        under ``fail_fast``: a detached copy of the stage's exception, with
        its original type and message.
        """
        return self._run([job], fail_fast=True).outcomes[0].result

    def run_schedule_stage(
        self, jobs: Sequence[BatchJob]
    ) -> List[Tuple[Any, StageExecution]]:
        """Resolve only the schedule stage of ``jobs`` through the tier runner.

        Returns, per job in submission order, ``(value, execution)``: the
        :class:`~repro.synthesis.pipeline.ScheduleArtifact` or the stage's
        exception, and how the stage was satisfied.  Neither the run-level
        result tier nor the failure memo is read — a failure memoized under
        a job's run key may come from a later stage.  A schedule failure
        fails the whole job, so it is memoized under the run key like any
        stage failure.
        """
        pending: List[_PendingJob] = []
        for index, (job, fingerprint) in enumerate(zip(jobs, _graph_fingerprints(jobs))):
            pending.append(
                _PendingJob(
                    index=index,
                    job=job,
                    run_key=cache_key(job.graph, job.config, graph_hash=fingerprint),
                    plan=self.pipeline.plan(
                        job.graph, job.config, graph_hash=fingerprint
                    )[:1],
                    library=build_library(job.config),
                )
            )
        with obs_span("batch", category="engine", jobs=len(jobs)):
            self._run_tier(0, pending, fail_fast=False)
        return [
            (p.error if p.failed else p.artifacts[0], p.executions[0])
            for p in pending
        ]

    def _run(self, jobs: Sequence[BatchJob], fail_fast: bool) -> BatchReport:
        with obs_span("batch", category="engine", jobs=len(jobs)):
            report = self._run_traced(jobs, fail_fast)
        self._attach_span_summaries(report.outcomes)
        return report

    def _run_traced(self, jobs: Sequence[BatchJob], fail_fast: bool) -> BatchReport:
        """The body of :meth:`run`, executed inside the batch span."""
        start = time.perf_counter()
        _LOG.info("batch starting: %d job(s), %d worker(s)", len(jobs), self.max_workers)
        stats_before = replace(self.cache.stats)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        # Tier 0: resolve every job against the failure memo and the
        # assembled-result memory tier, so a warm batch never plans a single
        # stage.  Jobs with identical run-level keys are solved once; the
        # duplicates are aliases of the first.
        pending: List[_PendingJob] = []
        aliases: Dict[str, List[Tuple[int, BatchJob]]] = {}
        for index, (job, fingerprint) in enumerate(zip(jobs, _graph_fingerprints(jobs))):
            # One canonicalization per graph: the fingerprint feeds both the
            # run-level key and (for misses) the stage plan.
            run_key = cache_key(job.graph, job.config, graph_hash=fingerprint)
            if run_key in aliases:
                # Intra-batch duplicate of a job already planned: it never
                # performs its own lookups, so the stats are not charged
                # twice for work this batch does exactly once.
                aliases[run_key].append((index, job))
                continue
            # The failure memo is consulted before the result tiers so a
            # memoized failure is not also charged as a cache miss.
            known_failure = self.cache.get_failure(run_key)
            if known_failure is not None:
                if fail_fast:
                    raise _detached_failure(known_failure)
                outcomes[index] = JobOutcome(
                    job_id=job.job_id,
                    cache_key=run_key,
                    error=_error_message(known_failure),
                    cache_hit=True,
                    graph_name=job.graph.name,
                )
                continue
            # Run-level keys are looked up without claiming: a job's run key
            # stays effectively held for its entire run, so waiting on one
            # from inside another run could chain into a hold-and-wait cycle
            # between concurrent engines.  A foreign in-flight run is a plain
            # miss; the job's stage claims still deduplicate the real work.
            cached = self.cache.get_memory(run_key)
            if cached is not None:
                outcomes[index] = JobOutcome(
                    job_id=job.job_id,
                    cache_key=run_key,
                    result=cached,
                    cache_hit=True,
                    graph_name=job.graph.name,
                )
            else:
                aliases[run_key] = []
                pending.append(
                    _PendingJob(
                        index=index,
                        job=job,
                        run_key=run_key,
                        plan=self.pipeline.plan(
                            job.graph, job.config, graph_hash=fingerprint
                        ),
                        library=build_library(job.config),
                    )
                )

        # Tier 1..N: run the pipeline stage by stage across all pending jobs,
        # then assemble outcomes (and alias copies) in submission order.
        # Run-level keys carry no single-flight claims (tier 0 resolves them
        # via get_memory), so there is nothing to release for failed jobs —
        # stage-key claims are managed entirely inside _run_tier.  Plans may
        # differ in length (configs with verify=True carry a fourth stage),
        # so the tier count is the longest plan and shorter jobs simply sit
        # out the extra tiers.
        tiers = max((len(p.plan) for p in pending), default=0)
        for tier in range(tiers):
            with obs_span(f"tier:{tier}", category="engine", tier=tier):
                self._run_tier(tier, pending, fail_fast)

        for p in pending:
            outcomes[p.index] = self._finish_pending(p)
            for alias_index, alias_job in aliases.get(p.run_key, []):
                source = outcomes[p.index]
                # An alias never executed anything itself — it shares the
                # first occurrence's outcome (result or failure alike).
                outcomes[alias_index] = JobOutcome(
                    job_id=alias_job.job_id,
                    cache_key=source.cache_key,
                    result=source.result,
                    error=source.error,
                    cache_hit=True,
                    graph_name=alias_job.graph.name,
                )

        # Snapshot the cache counters as a per-batch delta: the cache may be
        # shared across many batches, and a report must describe its own.
        # delta() iterates the CacheStats fields, so tier or claim counters
        # added later flow into per-batch reports without touching this.
        batch_stats = self.cache.stats.delta(stats_before)
        wall = time.perf_counter() - start
        failed = sum(1 for o in outcomes if o is not None and o.error)
        jobs_metric = obs_metrics.jobs_counter()
        jobs_metric.inc(len(jobs) - failed, state="done")
        if failed:
            jobs_metric.inc(failed, state="failed")
        _LOG.info(
            "batch finished: %d job(s), %d failed, %.3fs", len(jobs), failed, wall
        )
        return BatchReport(
            outcomes=[o for o in outcomes if o is not None],
            wall_time_s=wall,
            max_workers=self.max_workers,
            cache_stats=batch_stats,
        )

    @staticmethod
    def _attach_span_summaries(outcomes: Sequence[Optional[JobOutcome]]) -> None:
        """Embed per-stage span digests into each outcome (tracing only).

        Stage spans carry an abbreviated stage key, and so does every
        :class:`StageExecution`, which is how a job's payload points at the
        exact spans — including spans of stages another job of the batch
        paid for ("shared") — that produced its artifacts.  A no-op while
        tracing is disabled.
        """
        rec = obs_recorder()
        if rec is None:
            return
        by_key: Dict[str, Dict[str, Any]] = {}
        for s in rec.spans():
            if s.category != "stage":
                continue
            key = s.attributes.get("key")
            if not key or s.attributes.get("action") == "claimed":
                continue
            by_key[key] = {
                "name": s.name,
                "duration_s": round(s.duration_s, 6),
                "action": s.attributes.get("action", ""),
                "key": key,
            }
        for outcome in outcomes:
            if outcome is None or not outcome.stages:
                continue
            outcome.spans = [
                dict(by_key[e.key[:16]], action=e.action)
                for e in outcome.stages
                if e.key[:16] in by_key
            ]

    # -------------------------------------------------------------- internals
    def _run_tier(
        self, tier: int, pending: List[_PendingJob], fail_fast: bool
    ) -> None:
        """Resolve stage ``tier`` for every live pending job.

        Cache hits are replayed; the remaining work is grouped by stage key
        (one execution per distinct key, shared by every job in the group)
        and run inline or over the pool.
        """
        by_key: Dict[str, List[_PendingJob]] = {}
        for p in pending:
            if p.failed or tier >= len(p.plan):
                continue
            by_key.setdefault(p.plan[tier].key, []).append(p)
        # Resolve the tier's unique keys in *sorted* order.  A cache miss
        # claims the key and a foreign claim blocks, so concurrent engines
        # must acquire claims in one global order — two engines visiting
        # overlapping keys in opposite orders would otherwise hold-and-wait
        # on each other (ABBA deadlock) until the claim timeout.  All waits
        # happen against same-tier keys (keys embed the stage name, and
        # claims are released when the tier ends), so sorted acquisition per
        # tier rules the cycle out entirely.
        groups: Dict[str, List[_PendingJob]] = {}
        for stage_key in sorted(by_key):
            group = by_key[stage_key]
            # Every job in a group shares one stage key, and keys embed the
            # stage name, so the group's stage comes off any member's plan.
            stage = group[0].plan[tier].stage
            # The span covers the lookup because this get may *block* on a
            # foreign claim — the claim wait then nests under this stage
            # span, which is what makes a cross-replica wait attributable in
            # the trace.
            lookup_start = time.perf_counter()
            with obs_span(
                f"stage:{stage.name}",
                category="stage",
                stage=stage.name,
                key=stage_key[:16],
            ) as lookup_span:
                artifact = self.cache.get(stage_key)
                lookup_span.set(
                    action="replayed" if artifact is not None else "claimed"
                )
            if artifact is not None:
                obs_metrics.stage_wall_histogram().observe(
                    time.perf_counter() - lookup_start,
                    stage=stage.name,
                    action="replayed",
                )
                for p in group:
                    p.artifacts.append(artifact)
                    p.executions.append(
                        StageExecution(
                            stage=stage.name,
                            key=stage_key,
                            action="replayed",
                            solve=solve_record(artifact),
                        )
                    )
            else:
                groups[stage_key] = group
        if not groups:
            return

        # Any stage key whose execution does not end in a cache.put must have
        # its single-flight claim (taken by the miss above) released, or a
        # concurrent engine sharing the cache would wait out the claim
        # timeout.  The finally covers failed stages, fail-fast raises, and
        # keys the aborted inline/pool runners never reached.
        stored: set = set()
        try:
            self._resolve_tier(tier, groups, stored, fail_fast)
        finally:
            for stage_key in groups:
                if stage_key not in stored:
                    self.cache.abandon(stage_key)

    def _resolve_tier(
        self,
        tier: int,
        groups: Dict[str, List[_PendingJob]],
        stored: set,
        fail_fast: bool,
    ) -> None:
        """Execute a tier's unique stage keys and distribute the artifacts.

        ``stored`` collects the stage keys whose artifacts were published to
        the cache, so the caller knows which claims are already released.
        """
        if self.max_workers > 1 and len(groups) > 1:
            executed = self._run_tier_pool(tier, groups, fail_fast)
        else:
            executed = self._run_tier_inline(tier, groups, fail_fast)

        for stage_key, (ok, value, elapsed, crashed) in executed.items():
            group = groups[stage_key]
            stage = group[0].plan[tier].stage
            if ok:
                self.cache.put(stage_key, value)
                stored.add(stage_key)
                obs_metrics.stage_wall_histogram().observe(
                    elapsed, stage=stage.name, action="ran"
                )
                for position, p in enumerate(group):
                    p.artifacts.append(value)
                    p.executions.append(
                        StageExecution(
                            stage=stage.name,
                            key=stage_key,
                            action="ran" if position == 0 else "shared",
                            wall_time_s=elapsed if position == 0 else 0.0,
                            solve=solve_record(value),
                        )
                    )
            else:
                for p in group:
                    p.error = value
                    p.executions.append(
                        StageExecution(
                            stage=stage.name,
                            key=stage_key,
                            action="ran",
                            wall_time_s=elapsed,
                        )
                    )
                    # Infrastructure crashes are not properties of the job's
                    # content — never memoize them; deterministic stage
                    # failures are memoized under each sharing job's run key
                    # so identical future jobs replay the error solver-free.
                    if not crashed:
                        self._record_failure(p.run_key, value)
                if fail_fast:
                    raise _detached_failure(value)

    def _run_tier_inline(
        self, tier: int, groups: Dict[str, List[_PendingJob]], fail_fast: bool
    ) -> Dict[str, Tuple[bool, Any, float, bool]]:
        executed: Dict[str, Tuple[bool, Any, float, bool]] = {}
        for stage_key, group in groups.items():
            rep = group[0]
            stage = rep.plan[tier].stage
            upstream = stage.upstream_for(rep.artifacts)
            context = StageContext(
                graph=rep.job.graph,
                config=rep.job.config,
                library=rep.library,
                warm_start=rep.job.warm_hint,
            )
            start = time.perf_counter()
            try:
                with obs_span(
                    f"stage:{stage.name}",
                    category="stage",
                    stage=stage.name,
                    action="ran",
                    key=stage_key[:16],
                ):
                    artifact = stage.run(context, upstream)
            except Exception as exc:  # noqa: BLE001 - captured per job
                executed[stage_key] = (False, exc, time.perf_counter() - start, False)
                if fail_fast:
                    # The caller memoizes and raises; skip the doomed rest.
                    return executed
            else:
                executed[stage_key] = (True, artifact, time.perf_counter() - start, False)
        return executed

    def _run_tier_pool(
        self, tier: int, groups: Dict[str, List[_PendingJob]], fail_fast: bool
    ) -> Dict[str, Tuple[bool, Any, float, bool]]:
        executed: Dict[str, Tuple[bool, Any, float, bool]] = {}
        workers = min(self.max_workers, len(groups))
        # The dispatching side of trace propagation: every pool payload
        # carries the current span context so worker-recorded spans parent
        # under this tier's span.
        context_info = current_context()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            future_info = {}
            for stage_key, group in groups.items():
                rep = group[0]
                stage = rep.plan[tier].stage
                upstream = stage.upstream_for(rep.artifacts)
                payload = (
                    stage.name,
                    graph_to_dict(rep.job.graph),
                    rep.job.config.to_dict(),
                    upstream,
                    (context_info.serialize(), stage_key[:16])
                    if context_info is not None
                    else None,
                )
                future = pool.submit(_execute_stage_serialized, payload)
                future_info[future] = (stage_key, time.perf_counter())
            # Collect as futures complete; artifacts are keyed by stage key,
            # so determinism of the report does not depend on this order.
            for future in as_completed(future_info):
                stage_key, submit_time = future_info[future]
                try:
                    ok, value, elapsed, child_spans = future.result()
                    crashed = False
                    if child_spans:
                        rec = obs_recorder()
                        if rec is not None:
                            rec.absorb(child_spans)
                except Exception as exc:  # noqa: BLE001 - worker/pickling crash
                    # A stage-level failure comes back tagged; reaching here
                    # means the worker itself died (OOM-kill, broken pool),
                    # so only queue-side timing exists.  Artifacts of earlier
                    # tiers are already in the cache, so the next run resumes
                    # from the last completed stage instead of starting over.
                    ok = False
                    crashed = True
                    value = exc
                    elapsed = time.perf_counter() - submit_time
                if not ok and fail_fast:
                    # Abort for real: drop queued stages so the pool's
                    # __exit__ does not sit out every remaining solve.
                    # Deterministic failures are still memoized by the
                    # caller via the executed map before it raises.
                    executed[stage_key] = (ok, value, elapsed, crashed)
                    pool.shutdown(wait=False, cancel_futures=True)
                    return executed
                executed[stage_key] = (ok, value, elapsed, crashed)
        return executed

    def _finish_pending(self, p: _PendingJob) -> JobOutcome:
        if p.failed:
            return JobOutcome(
                job_id=p.job.job_id,
                cache_key=p.run_key,
                error=_error_message(p.error),
                wall_time_s=p.ran_time_s(),
                graph_name=p.job.graph.name,
                stages=list(p.executions),
            )
        schedule_art, arch_art, physical_art = p.artifacts[:3]
        result = SynthesisResult.from_artifacts(
            graph=p.job.graph,
            library=p.library,
            config=p.job.config,
            schedule_artifact=schedule_art,
            architecture_artifact=arch_art,
            physical_artifact=physical_art,
            verification_artifact=p.artifacts[3] if len(p.artifacts) > 3 else None,
        )
        # Memory tier only: the stage artifacts persist individually.
        self.cache.put(p.run_key, result, disk=False)
        ran_any = any(e.action == "ran" for e in p.executions)
        return JobOutcome(
            job_id=p.job.job_id,
            cache_key=p.run_key,
            result=result,
            cache_hit=not ran_any,
            wall_time_s=p.ran_time_s(),
            graph_name=p.job.graph.name,
            stages=list(p.executions),
        )
