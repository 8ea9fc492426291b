"""The exploration engine: strategy-driven Pareto search over the batch layer.

The engine owns everything a :class:`~repro.explore.strategies.SearchStrategy`
should not have to think about:

* **evaluation** — candidates become :class:`~repro.batch.jobs.BatchJob`\\ s
  and run through the stage-granular
  :class:`~repro.batch.engine.BatchSynthesisEngine`, so candidates agreeing
  on upstream stage keys (a pitch axis under a fixed schedule slice, two
  workloads sharing a graph) share solves exactly like sweep points do, and
  a warm cache replays stages across whole explorations;
* **cheap probes** — the schedule stage alone, through the same tier runner
  and cache, so a triage pass and the later full pass never solve the same
  schedule twice;
* **budget** — the spec's cap on full evaluations, enforced centrally;
* **the frontier** — every completed candidate's objective vector is offered
  to one incremental :class:`~repro.explore.frontier.ParetoFrontier`;
* **resume** — after every evaluation chunk the engine persists its state
  (spec digest, evaluated candidates, frontier) to ``state_path``; a rerun
  pointed at the same file skips finished candidates and continues, while
  the stage cache replays whatever an interrupted run had completed.
"""

from __future__ import annotations

import json
import os
import random
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.batch.engine import BatchSynthesisEngine
from repro.batch.cache import ResultCache
from repro.explore.frontier import FrontierEntry, ParetoFrontier
from repro.explore.objectives import objective_values, schedule_objective_values
from repro.explore.spec import (
    Candidate,
    ExplorationSpec,
    candidate_job,
    enumerate_candidates,
)
from repro.explore.strategies import StrategyContext, get_strategy
from repro.synthesis.config import apply_solver_override
from repro.synthesis.pipeline import StageExecution

#: Candidates per evaluation chunk: the state file is rewritten after each
#: chunk, bounding how much work an interruption can lose.
CHECKPOINT_EVERY = 8


@dataclass
class ExplorationState:
    """Everything a resumed exploration needs: digest, outcomes, frontier.

    ``evaluated`` maps candidate ids to ``{"objectives": {...}}`` for
    completed syntheses or ``{"error": msg}`` for failed ones — both count
    against the budget, so a resumed run never re-pays for either.  A
    failure caught by the cheap triage pass additionally carries
    ``"triage": true``: it is remembered (and reported) like any failure,
    but does *not* consume budget — the budget caps full synthesis
    evaluations, and a schedule-only probe isn't one, so a triage casualty
    must not starve a healthy survivor of its slot.
    """

    spec_digest: str
    evaluated: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    frontier: Optional[Dict[str, Any]] = None

    def save(self, path: Union[str, Path]) -> None:
        """Atomically persist the state as JSON (write-then-rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spec_digest": self.spec_digest,
            "evaluated": self.evaluated,
            "frontier": self.frontier,
        }
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> Optional["ExplorationState"]:
        """Load persisted state; ``None`` when the file does not exist.

        A syntactically broken state file raises — silently restarting a
        half-paid exploration would hide real corruption.
        """
        path = Path(path)
        if not path.exists():
            return None
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or "spec_digest" not in payload:
            raise ValueError(f"exploration state {path} is not a state file")
        return cls(
            spec_digest=payload["spec_digest"],
            evaluated=dict(payload.get("evaluated") or {}),
            frontier=payload.get("frontier"),
        )


@dataclass
class ExplorationReport:
    """Outcome of one :meth:`ExplorationEngine.run` call.

    Duck-types the slice of :class:`~repro.batch.report.BatchReport` the
    synthesis service consumes (:meth:`summary`, :meth:`to_json_payload`),
    so an exploration submitted over HTTP reports through the same
    endpoints as a batch.
    """

    spec: ExplorationSpec
    frontier: ParetoFrontier
    candidate_count: int
    evaluated: int
    failed: int
    stage_totals: Dict[str, Dict[str, Any]]
    errors: Dict[str, str]
    wall_time_s: float = 0.0
    resumed: bool = False
    #: Candidates whose scheduling solve consumed a warm-start incumbent
    #: (self-seeded heuristic or a neighboring candidate's schedule).
    warm_started: int = 0

    @property
    def num_failed(self) -> int:
        """Candidates whose synthesis failed (mirrors ``BatchReport``)."""
        return self.failed

    @property
    def scheduling_solves(self) -> int:
        """Scheduling solves this exploration actually paid for.

        The acceptance number: stage sharing and cache replays must keep
        this *strictly below* the number of evaluated configs whenever the
        spec varies any downstream-only knob.
        """
        return int(self.stage_totals.get("schedule", {}).get("ran", 0))

    def summary(self) -> Dict[str, Any]:
        """Exploration totals, JSON-serializable (service status payload)."""
        return {
            "kind": "exploration",
            "name": self.spec.name,
            "strategy": self.spec.strategy,
            "objectives": list(self.spec.objectives),
            "candidates": self.candidate_count,
            "budget": self.spec.budget,
            "evaluated": self.evaluated,
            "failed": self.failed,
            "frontier_size": len(self.frontier),
            "resumed": self.resumed,
            "stages": self.stage_totals,
            "scheduling_solves": self.scheduling_solves,
            "warm_started": self.warm_started,
            "wall_time_s": round(self.wall_time_s, 3),
        }

    def to_json_payload(self) -> Dict[str, Any]:
        """The full machine-readable result: summary + frontier + errors.

        Written verbatim by ``repro explore --json`` and returned verbatim
        by the service's result endpoint.
        """
        return {
            "summary": self.summary(),
            "spec": self.spec.to_payload(),
            "frontier": [entry.payload() for entry in self.frontier],
            "errors": dict(sorted(self.errors.items())),
        }


class ExplorationEngine:
    """Drive one exploration spec to a Pareto frontier.

    Parameters
    ----------
    spec:
        The validated :class:`ExplorationSpec`.
    cache:
        Shared stage cache; ignored when ``batch_engine`` is given (the
        engine's cache wins).  A private in-memory cache is created when
        both are omitted.
    batch_engine:
        An existing :class:`BatchSynthesisEngine` to evaluate through — the
        synthesis service passes its long-lived engine here so exploration
        candidates share the single-flight stage cache with every other
        submission.
    max_workers:
        Process count for a private engine (ignored with ``batch_engine``).
    state_path:
        JSON file for resumable state; ``None`` disables persistence.
    solver:
        Optional ``--solver``-style backend override applied to every
        candidate's config (see
        :func:`repro.synthesis.config.apply_solver_override`).
    warm_start:
        When true (the default), each candidate's job carries the schedule
        of the nearest already-solved candidate of the *same workload*
        (nearest by axes Hamming distance) as a solver warm-start hint.
        Hints are runtime advice: they never enter cache keys or the
        persisted state, so disabling them is a pure A/B switch — the
        frontier contents must not change.
    """

    def __init__(
        self,
        spec: ExplorationSpec,
        cache: Optional[ResultCache] = None,
        batch_engine: Optional[BatchSynthesisEngine] = None,
        max_workers: int = 1,
        state_path: Optional[Union[str, Path]] = None,
        solver: Optional[str] = None,
        warm_start: bool = True,
    ) -> None:
        self.spec = spec
        self.batch_engine = batch_engine or BatchSynthesisEngine(
            max_workers=max_workers,
            cache=cache if cache is not None else ResultCache(),
        )
        self.cache = self.batch_engine.cache
        self.state_path = Path(state_path) if state_path is not None else None
        self.solver = solver
        self.warm_start = warm_start
        #: In-memory schedules of this run's solved candidates, keyed by
        #: candidate id — the warm-start neighbor pool.  Deliberately not
        #: persisted: a resumed run re-warms from what it solves itself.
        self._schedules: Dict[str, Any] = {}
        self._state: Optional[ExplorationState] = None
        self._frontier: Optional[ParetoFrontier] = None
        self._stage_totals: Dict[str, Dict[str, Any]] = {}
        self._budget: int = 0
        #: Generator-graph memo shared by every candidate of this engine —
        #: one generation per distinct workload, not per candidate.  Seeded
        #: with whatever the spec's validation probe already built, so a
        #: spec-then-run flow generates each graph exactly once overall.
        self._graph_cache: Dict[str, Any] = getattr(spec, "graph_cache", None) or {}

    # ------------------------------------------------------------------- api
    def run(self) -> ExplorationReport:
        """Execute the spec's strategy and return the frontier report."""
        start = time.perf_counter()
        candidates = enumerate_candidates(self.spec)
        resumed = self._load_state()
        self._budget = (
            self.spec.budget if self.spec.budget is not None else len(candidates)
        )
        self._stage_totals = {}

        context = StrategyContext(
            spec=self.spec,
            candidates=candidates,
            rng=random.Random(self.spec.seed),
            evaluate=self._evaluate,
            cheap_values=self._cheap_values,
            remaining_budget=self._remaining_budget,
            evaluated_ids=lambda: set(self._state.evaluated),
        )
        get_strategy(self.spec.strategy).run(context)
        self._persist()

        errors = {
            cid: record["error"]
            for cid, record in self._state.evaluated.items()
            if "error" in record
        }
        return ExplorationReport(
            spec=self.spec,
            frontier=self._frontier,
            candidate_count=len(candidates),
            evaluated=len(self._state.evaluated),
            failed=len(errors),
            stage_totals={
                stage: dict(row, wall_time_s=round(row["wall_time_s"], 3))
                for stage, row in self._stage_totals.items()
            },
            errors=errors,
            wall_time_s=time.perf_counter() - start,
            resumed=resumed,
            warm_started=sum(
                1
                for record in self._state.evaluated.values()
                if record.get("warm_start_used")
            ),
        )

    # -------------------------------------------------------------- internals
    def _load_state(self) -> bool:
        """Initialize (or resume) state and frontier; return whether resumed."""
        state = (
            ExplorationState.load(self.state_path)
            if self.state_path is not None
            else None
        )
        digest = self.spec.digest()
        if state is not None and state.spec_digest != digest:
            raise ValueError(
                f"exploration state {self.state_path} belongs to a different "
                "spec; point --state-dir somewhere fresh or restore the "
                "original spec"
            )
        if state is None:
            self._state = ExplorationState(spec_digest=digest)
            self._frontier = ParetoFrontier(self.spec.objectives)
            return False
        self._state = state
        self._frontier = (
            ParetoFrontier.from_payload(state.frontier)
            if state.frontier
            else ParetoFrontier(self.spec.objectives)
        )
        return bool(state.evaluated)

    def _remaining_budget(self) -> int:
        """Full evaluations the budget still admits (resumed ones included).

        Triage-flagged failures are excluded: they never received a full
        evaluation, so they hold no budget slot.
        """
        used = sum(
            1
            for record in self._state.evaluated.values()
            if not record.get("triage")
        )
        return max(0, self._budget - used)

    def _persist(self) -> None:
        """Write the current state file, when persistence is configured."""
        if self.state_path is None:
            return
        self._state.frontier = self._frontier.to_payload()
        self._state.save(self.state_path)

    def _candidate_job(self, candidate: Candidate):
        """Build the candidate's job with the solver override applied."""
        job = candidate_job(self.spec, candidate, graph_cache=self._graph_cache)
        job.config = apply_solver_override(job.config, self.solver)
        return job

    def _neighbor_hint(self, candidate: Candidate) -> Optional[Any]:
        """Schedule of the nearest already-solved same-workload candidate.

        Nearest by Hamming distance over the axes point (neighboring sweep
        configs differ in one axis, so their schedules are the most likely
        to transfer), ties broken by candidate id for determinism.  Only
        same-workload candidates qualify — a warm start must describe the
        same sequencing graph to have any chance of fitting.
        """
        best_key = None
        best_schedule = None
        for cid, (other, schedule) in self._schedules.items():
            if other.workload != candidate.workload:
                continue
            distance = sum(
                1
                for axis in set(candidate.point) | set(other.point)
                if candidate.point.get(axis) != other.point.get(axis)
            )
            key = (distance, cid)
            if best_key is None or key < best_key:
                best_key = key
                best_schedule = schedule
        return best_schedule

    def _merge_stages(self, executions: Iterable[StageExecution]) -> None:
        """Fold stage executions (full pass or triage) into the totals."""
        for execution in executions:
            row = self._stage_totals.setdefault(
                execution.stage,
                {"ran": 0, "replayed": 0, "shared": 0, "wall_time_s": 0.0},
            )
            row[execution.action] += 1
            row["wall_time_s"] += execution.wall_time_s

    def _evaluate(self, candidates: Sequence[Candidate]) -> None:
        """Fully evaluate candidates (budget capped, resume aware).

        Runs in chunks of :data:`CHECKPOINT_EVERY`; each chunk is one batch
        engine run (so stage sharing works within a chunk and the cache
        carries it across chunks) followed by a state checkpoint.
        """
        todo: List[Candidate] = []
        seen: set = set()
        for candidate in candidates:
            if candidate.candidate_id in seen:
                continue
            seen.add(candidate.candidate_id)
            if candidate.candidate_id in self._state.evaluated:
                continue
            todo.append(candidate)

        while todo and self._remaining_budget() > 0:
            chunk = todo[: min(CHECKPOINT_EVERY, self._remaining_budget())]
            todo = todo[len(chunk) :]
            jobs = [self._candidate_job(candidate) for candidate in chunk]
            if self.warm_start:
                for candidate, job in zip(chunk, jobs):
                    job.warm_hint = self._neighbor_hint(candidate)
            report = self.batch_engine.run(jobs)
            self._merge_stages(e for outcome in report for e in outcome.stages)
            for candidate, outcome in zip(chunk, report):
                if outcome.ok:
                    values = objective_values(
                        self.spec.objectives,
                        outcome.result,
                        outcome.result.config,
                        wall_time_s=outcome.wall_time_s,
                    )
                    self._frontier.add(
                        FrontierEntry(
                            candidate_id=candidate.candidate_id,
                            objectives=values,
                            metrics=outcome.metrics().as_dict(),
                        )
                    )
                    record: Dict[str, Any] = {
                        "objectives": dict(sorted(values.items()))
                    }
                    solve = outcome.result.schedule.solve
                    if solve is not None and solve.warm_start_used:
                        record["warm_start_used"] = True
                    self._state.evaluated[candidate.candidate_id] = record
                    self._schedules[candidate.candidate_id] = (
                        candidate,
                        outcome.result.schedule,
                    )
                else:
                    self._state.evaluated[candidate.candidate_id] = {
                        "error": outcome.error
                    }
            self._persist()

    def _cheap_values(
        self, candidates: Sequence[Candidate]
    ) -> Dict[str, Dict[str, float]]:
        """Run only the schedule stage per candidate; return cheap vectors.

        The probes go through the batch engine's tier runner
        (:meth:`BatchSynthesisEngine.run_schedule_stage`) under the schedule
        stage's real key, so a subsequent full evaluation — or a concurrent
        service submission — replays these solves instead of re-paying
        them, and duplicated schedule slices within the candidate set solve
        once (the duplicates count as ``shared``).  Candidates whose
        scheduling fails are recorded as evaluated failures and omitted
        from the returned map.
        """
        todo = [c for c in candidates if c.candidate_id not in self._state.evaluated]
        jobs = [self._candidate_job(candidate) for candidate in todo]
        results = self.batch_engine.run_schedule_stage(jobs)
        self._merge_stages(execution for _, execution in results)
        probes = {
            candidate.candidate_id: (job, value)
            for candidate, job, (value, _) in zip(todo, jobs, results)
        }
        vectors: Dict[str, Dict[str, float]] = {}
        for candidate in candidates:
            cid = candidate.candidate_id
            if cid not in probes:
                record = self._state.evaluated[cid]
                if "objectives" in record:
                    vectors[cid] = dict(record["objectives"])
                continue
            job, value = probes[cid]
            if isinstance(value, BaseException):
                self._state.evaluated[cid] = {
                    "error": f"{type(value).__name__}: {value}",
                    "triage": True,
                }
            else:
                vectors[cid] = schedule_objective_values(
                    self.spec.objectives, value.schedule, job.config
                )
        self._persist()
        return vectors


def format_exploration_report(report: ExplorationReport) -> str:
    """Human-readable exploration report (frontier table + stage totals)."""
    lines: List[str] = []
    name = report.spec.name or "exploration"
    resumed = " (resumed)" if report.resumed else ""
    lines.append(
        f"{name}{resumed}: strategy={report.spec.strategy}, "
        f"{report.evaluated}/{report.candidate_count} candidates evaluated "
        f"({report.failed} failed), frontier size {len(report.frontier)}"
    )
    lines.append("objectives (minimized): " + ", ".join(report.spec.objectives))
    for entry in sorted(report.frontier, key=lambda e: e.candidate_id):
        values = " ".join(
            f"{objective}={entry.objectives[objective]:g}"
            for objective in report.spec.objectives
        )
        lines.append(f"  {entry.candidate_id:<40} {values}")
    for stage, row in report.stage_totals.items():
        lines.append(
            f"stage {stage}: {row['ran']} ran, {row['replayed']} replayed, "
            f"{row['shared']} shared, {row['wall_time_s']:.2f} s solve time"
        )
    warm_note = (
        f", {report.warm_started} warm-started" if report.warm_started else ""
    )
    lines.append(
        f"exploration: {report.scheduling_solves} scheduling solve(s) for "
        f"{report.evaluated} evaluated config(s){warm_note}, "
        f"{report.wall_time_s:.2f} s wall clock"
    )
    return "\n".join(lines)
