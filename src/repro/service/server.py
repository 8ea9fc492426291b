"""The long-running synthesis service: asyncio HTTP front, batch-engine back.

One process, three moving parts:

* an :func:`asyncio.start_server` listener speaking the minimal HTTP of
  :mod:`repro.service.http` — ``POST /jobs`` accepts a batch manifest,
  sweep spec, or exploration spec body (auto-detected: ``workloads`` →
  exploration, ``sweep`` → sweep, else manifest), ``GET /jobs/{id}``
  reports status plus the per-stage
  ran/replayed/shared breakdown, ``GET /jobs/{id}/result`` returns the full
  report payload, ``GET /healthz`` answers liveness probes, ``GET /stats``
  reports the per-tier cache and single-flight claim counters;
* a bounded pool of worker coroutines, each driving one queued job at a
  time through the *existing* stage-granular
  :class:`~repro.batch.engine.BatchSynthesisEngine` on a daemon job
  thread, so the event loop keeps serving requests while solvers run;
* one long-lived, single-flight :class:`~repro.batch.cache.ResultCache`,
  shared by every job — concurrent submissions that agree on a stage key perform that
  stage's solve exactly once, the same way the points of a single sweep
  share stages today.

Graceful shutdown (``POST /shutdown``, SIGTERM via ``repro serve``, or
:meth:`SynthesisService.request_shutdown`) stops accepting work, gives
running jobs a short drain window, then flushes every durable in-memory
artifact to the disk cache — a restarted server pointed at the same
``cache_dir`` resumes interrupted jobs from their last completed stage.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Tuple, Union

from repro.batch.cache import ResultCache
from repro.batch.engine import BatchSynthesisEngine
from repro.batch.jobs import expand_sweep, manifest_jobs
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.trace import (
    TRACE_HEADER,
    SpanContext,
    TraceRecorder,
    install_recorder,
    span as obs_span,
    uninstall_recorder,
)
from repro.service.http import (
    MAX_BODY_BYTES,
    Connections,
    HttpError,
    RawBody,
    Request,
    Routed,
)
from repro.service.state import DONE, FAILED, JobRecord, JobRegistry

_LOG = get_logger("service")

#: Bound on the service cache's in-memory LRU tier.
CACHE_ENTRIES = 1024
#: Reject submissions that expand to more jobs than this.  A sweep body of a
#: few KB can describe a cartesian product of millions of points; the count
#: is checked structurally *before* any expansion so a hostile grid cannot
#: stall the event loop or balloon memory.
MAX_JOBS_PER_SUBMISSION = 1024
#: Reject generator jobs/workloads whose integer size parameters
#: (``num_operations``, ``num_inputs``) exceed this.  Graph generation is
#: superlinear and happens synchronously at submit time, so its size must
#: be bounded like the job count is.
MAX_GENERATOR_OPERATIONS = 2000


def _submission_specs(payload: Any) -> List[Any]:
    """Every job-shaped fragment of a raw submission body, any kind.

    Sweep specs carry their source keys at top level; manifests per job
    entry; exploration specs per workload entry.  The one enumeration both
    structural guards below iterate — a new submission kind (or nested
    shape) is added here once, so the protocol rejection and the generator
    size gate can never drift apart.
    """
    if isinstance(payload, list):
        return list(payload)
    if not isinstance(payload, dict):
        return []
    specs: List[Any] = [payload]
    if isinstance(payload.get("jobs"), list):
        specs.extend(payload["jobs"])
    if isinstance(payload.get("workloads"), list):
        specs.extend(payload["workloads"])
    return specs


def _reject_protocol_entries(payload: Any) -> None:
    """Refuse ``protocol`` file references in HTTP-submitted manifests.

    In a manifest *file*, a ``protocol`` path resolves relative to that
    file's directory; an HTTP body has no directory, so the path would
    resolve against the server's filesystem — handing every client a
    read/probe primitive on whatever the server process can open (the
    "does not exist" error alone is a file-existence oracle).  Custom
    graphs belong in local ``repro batch`` runs; the service accepts only
    the built-in named assays.
    """
    for spec in _submission_specs(payload):
        if isinstance(spec, dict) and "protocol" in spec:
            raise HttpError(
                400,
                "'protocol' file jobs are not accepted over HTTP "
                "(paths would resolve on the server); submit a named assay "
                "or run 'repro batch' locally",
            )


def _reject_oversized_generators(payload: Any, limit: int) -> None:
    """Bound the synthetic graphs an HTTP submission may ask the server for.

    Generator jobs count as *one* job in the structural size gate, but
    graph generation itself is superlinear in its size parameters and runs
    synchronously while the submission is parsed — a single
    ``{"generator": "random_assay", "num_operations": 200000}`` entry
    (or a small graph with ``"num_inputs": 1000000``, which costs a
    million-entry shuffle per operation) would stall the event loop for
    hours.  Every integer size parameter is therefore held to ``limit``,
    and the submission's *aggregate* generator size to ``8 × limit`` —
    1024 at-the-limit entries would otherwise compose with the job-count
    gate into minutes of generation per accepted submission.  (Building
    happens off the event loop, so a gated submission costs a bounded
    worker-thread stint, never listener liveness.)  The walk shares
    :func:`_submission_specs` with the protocol rejection and reads only
    raw payload shapes; non-integer values fall through to the real
    loader's error.
    """
    aggregate = 0
    for spec in _submission_specs(payload):
        if not isinstance(spec, dict) or "generator" not in spec:
            continue
        for parameter in ("num_operations", "num_inputs"):
            value = spec.get(parameter)
            if not isinstance(value, int):
                continue
            if value > limit:
                raise HttpError(
                    400,
                    f"generator job asks for {parameter}={value}, over "
                    f"this server's limit of {limit}; generate larger "
                    "graphs locally with 'repro batch'",
                )
            aggregate += max(value, 0)
    if aggregate > 8 * limit:
        raise HttpError(
            400,
            f"submission's generator jobs ask for {aggregate} operations "
            f"in aggregate, over this server's limit of {8 * limit}; "
            "split it into smaller submissions",
        )


def _estimated_job_count(payload: Any, kind: str) -> int:
    """Structural job count of a submission, without building anything.

    For sweeps, the product of the axis lengths; for manifests, the length
    of the job list; for explorations, workload count × the axes product
    (the *candidate space* — enumeration is linear in it, so the gate must
    bound it even when the budget is small).  Computed from the raw payload
    shapes only — graph construction and config validation have not run yet
    — so the size gate costs O(axes), not O(points).  Malformed shapes
    count as 0 and fall through to the real loader's precise error message.
    """
    if kind == "sweep":
        sweep = payload.get("sweep")
        if not isinstance(sweep, dict):
            return 0
        count = 1
        for values in sweep.values():
            if not isinstance(values, list) or not values:
                return 0
            count *= len(values)
        return count
    if kind == "explore":
        workloads = payload.get("workloads")
        if not isinstance(workloads, list):
            return 0
        count = len(workloads)
        axes = payload.get("axes")
        if isinstance(axes, dict):
            for values in axes.values():
                if not isinstance(values, list) or not values:
                    return 0
                count *= len(values)
        return count
    if isinstance(payload, list):
        return len(payload)
    if isinstance(payload, dict) and isinstance(payload.get("jobs"), list):
        return len(payload["jobs"])
    return 0


@dataclass
class ServiceConfig:
    """Everything tunable about one :class:`SynthesisService` instance."""

    #: Interface to bind; loopback by default — the service is an internal
    #: component, not an internet-facing one.
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`SynthesisService.bound_port`).
    port: int = 8642
    #: Concurrent jobs: the size of the worker pool.  Parallelism *within*
    #: a job's tiers is :attr:`engine_workers`.
    workers: int = 2
    #: Process count each engine run fans a tier's unique stages over
    #: (``1`` = inline, which keeps the in-process solver counters exact).
    engine_workers: int = 1
    #: Directory for the cache's persistent tier; ``None`` keeps the cache
    #: memory-only (shutdown then has nothing to flush).
    cache_dir: Optional[Union[str, Path]] = None
    #: Cache backend name (``memory``/``disk``/``shared``); ``None`` picks
    #: one from the locations given — ``shared`` when ``cache_addr`` is
    #: set, else ``disk`` when ``cache_dir`` is, else ``memory``.
    cache_backend: Optional[str] = None
    #: ``host:port`` of a ``repro cache-daemon``; required by (and only
    #: used with) the ``shared`` backend, which pools artifacts and
    #: single-flight claims across replicas.
    cache_addr: Optional[str] = None
    #: How long a job waits on another job's in-flight stage solve before
    #: assuming the claimant died and solving itself.
    claim_timeout_s: float = 300.0
    #: How long shutdown waits for running jobs before flushing and exiting.
    drain_timeout_s: float = 5.0
    #: Reject request bodies larger than this.
    max_body_bytes: int = MAX_BODY_BYTES
    #: Force every submitted job's two ILPs onto this solver
    #: backend (``repro serve --solver``).  ``None`` keeps each job's own
    #: config (normally the default backend).  Applied server-side *after* config
    #: validation, so it participates in the jobs' stage cache keys exactly
    #: like a manifest-level backend choice would.
    solver: Optional[str] = None


class SynthesisService:
    """The service object: build once, ``await serve_forever()``.

    All HTTP handling and registry mutation happen on the event-loop
    thread; only the batch-engine calls run on job threads, against the
    thread-safe single-flight cache.  The instance is single-use: after
    shutdown completes, build a fresh service (pointing at the same
    ``cache_dir`` to resume from cached stages).
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.config.engine_workers < 1:
            raise ValueError("engine_workers must be at least 1")
        self.cache = ResultCache(
            max_entries=CACHE_ENTRIES,
            cache_dir=self.config.cache_dir,
            backend=self.config.cache_backend,
            cache_addr=self.config.cache_addr,
            claim_timeout_s=self.config.claim_timeout_s,
        )
        self.engine = BatchSynthesisEngine(
            max_workers=self.config.engine_workers,
            cache=self.cache,
            fail_fast=False,
        )
        self.registry = JobRegistry()
        #: Actual bound port once started (differs from config.port for 0).
        self.bound_port: Optional[int] = None
        #: Entries written by the shutdown flush (for logs and tests).
        self.flushed_on_shutdown: Optional[int] = None
        #: Set once the listener is accepting — lets a thread hosting the
        #: service hand the bound port to blocking-client code safely.
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._worker_tasks: List[asyncio.Task] = []
        self._stopping = False
        self._started_at: Optional[float] = None
        self._connections = Connections()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listener and launch the worker pool (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._worker_tasks = [
            self._loop.create_task(self._worker(), name=f"repro-worker-{i}")
            for i in range(self.config.workers)
        ]
        self.ready.set()
        _LOG.info(
            "synthesis service listening on %s:%s (workers=%s, backend=%s)",
            self.config.host,
            self.bound_port,
            self.config.workers,
            self.cache.backend_name,
        )

    async def serve_forever(self) -> None:
        """Run until shutdown is requested, then drain, flush, and return.

        Calls :meth:`start` first unless the caller already did (callers
        start explicitly when they need the bound port before blocking).
        """
        if self._server is None:
            await self.start()
        try:
            await self._shutdown_event.wait()
        finally:
            await self._finalize()

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (callable from handlers or signal hooks)."""
        self._stopping = True
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Like :meth:`request_shutdown`, safe from any thread."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def _finalize(self) -> None:
        """Stop accepting, drain briefly, flush artifacts, release threads."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._connections.close()
            await self._server.wait_closed()
        # Idle workers block on the queue; a sentinel per worker wakes them.
        for _ in self._worker_tasks:
            self._queue.put_nowait(None)
        if self._worker_tasks:
            _done, pending = await asyncio.wait(
                self._worker_tasks, timeout=self.config.drain_timeout_s
            )
            for task in pending:
                # The awaiting coroutine is cancelled; the daemon job
                # thread it launched keeps writing completed stage
                # artifacts straight to the disk tier until process exit.
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # The flush is the resume guarantee: every durable artifact a tier
        # completed before shutdown is now on disk (including any whose
        # original write soft-failed), so the next server picks up where
        # this one stopped.  Entries a live tier already persisted are
        # tracked as clean and not written a second time.
        self.flushed_on_shutdown = self.cache.flush_to_disk()
        self.cache.close()
        _LOG.info(
            "synthesis service stopped (flushed %s cache entries)",
            self.flushed_on_shutdown,
        )

    # --------------------------------------------------------------- workers
    async def _worker(self) -> None:
        """One worker coroutine: pop queued jobs, run each on a job thread."""
        while True:
            job_id = await self._queue.get()
            if job_id is None:  # shutdown sentinel
                return
            record = self.registry.get(job_id)
            if self._stopping:
                # The drain window is for *in-flight* work only; jobs still
                # queued behind it are refused, not started — otherwise
                # shutdown time would grow with the backlog.
                record.mark_failed("server shut down before the job started")
                continue
            record.mark_running()
            _LOG.info("job %s started (%s)", record.job_id, record.kind)
            try:
                if record.kind == "explore":
                    report = await self._run_exploration(record)
                else:
                    report = await self._run_engine(record)
            except asyncio.CancelledError:
                record.mark_failed("server shut down while the job was running")
                raise
            except Exception as exc:  # noqa: BLE001 - reported on the record
                record.mark_failed(f"{type(exc).__name__}: {exc}")
                _LOG.warning("job %s failed: %s", record.job_id, record.error)
            else:
                record.mark_done(report)
                _LOG.info("job %s done", record.job_id)

    async def _run_engine(self, record: JobRecord) -> Any:
        """Run ``engine.run(jobs)`` on a daemon thread and await the result."""
        return await self._run_blocking(
            self._traced_job(lambda: self.engine.run(record.jobs), record)
        )

    async def _run_exploration(self, record: JobRecord) -> Any:
        """Run one exploration spec on a daemon thread and await its report.

        The exploration evaluates through this service's long-lived batch
        engine, so its candidates share the single-flight stage cache with
        every concurrent batch, sweep, and exploration — and the server's
        ``--solver`` override applies exactly as it does to manifests.
        """
        from repro.explore import ExplorationEngine

        explorer = ExplorationEngine(
            record.spec, batch_engine=self.engine, solver=self.config.solver
        )
        return await self._run_blocking(self._traced_job(explorer.run, record))

    def _traced_job(
        self, func: Callable[[], Any], record: JobRecord
    ) -> Callable[[], Any]:
        """Wrap a job callable so it records under the submitting trace.

        Job threads start with fresh context variables, so the recorder is
        installed *inside* the wrapper (on the job thread), parented on the
        client's span context.  The recorded spans are kept on the record —
        summaries and full events — and ride back to the client in the
        result payload; an untraced submission runs ``func`` untouched.
        """
        if record.trace_parent is None:
            return func

        def wrapper() -> Any:
            child = TraceRecorder(
                parent=SpanContext.deserialize(record.trace_parent)
            )
            token = install_recorder(child)
            try:
                with obs_span(
                    f"job:{record.job_id}", category="job", kind=record.kind
                ):
                    return func()
            finally:
                uninstall_recorder(token)
                record.trace_summary = {
                    "trace_id": child.trace_id,
                    "spans": child.stage_summaries(),
                    "events": child.serialized_spans(),
                }

        return wrapper

    async def _run_blocking(self, func: Callable[[], Any]) -> Any:
        """Run a blocking engine call on a *daemon* thread, await the result.

        A ``ThreadPoolExecutor`` would be the obvious tool, but its threads
        are non-daemon and ``concurrent.futures`` joins them at interpreter
        exit — a job stuck in a long solve would then keep the "stopped"
        process alive indefinitely, breaking the drain-timeout contract.
        Daemon threads let the process actually exit once shutdown decides
        to stop waiting; completed stage artifacts are already in the cache
        (and on disk), and the cache's disk writes are atomic, so a thread
        dying at interpreter teardown cannot corrupt anything.  Concurrency
        stays bounded because each of the ``workers`` coroutines runs one
        job thread at a time.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def deliver(result: Any, error: Optional[BaseException]) -> None:
            if future.cancelled():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        def runner() -> None:
            try:
                result, error = func(), None
            except BaseException as exc:  # noqa: BLE001 - delivered to the loop
                result, error = None, exc
            try:
                loop.call_soon_threadsafe(deliver, result, error)
            except RuntimeError:
                pass  # loop already closed during shutdown; result discarded

        threading.Thread(target=runner, name="repro-job", daemon=True).start()
        return await future

    # -------------------------------------------------------------- requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve the requests of one keep-alive connection."""
        await self._connections.serve(
            reader, writer, self._route, max_body_bytes=self.config.max_body_bytes
        )

    async def _route(self, request: Request) -> Routed:
        """Dispatch one request to its handler; raises :class:`HttpError`.

        A coroutine because submission building awaits a worker thread;
        every other endpoint answers synchronously from loop-side state.
        """
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._healthz_payload(), None
        if path == "/stats" and method == "GET":
            return 200, self._stats_payload(), None
        if path == "/metrics" and method == "GET":
            self._update_gauges()
            return (
                200,
                RawBody(
                    render_prometheus().encode("utf-8"), PROMETHEUS_CONTENT_TYPE
                ),
                None,
            )
        if path == "/jobs":
            if method == "POST":
                return (*await self._submit(request), None)
            if method == "GET":
                return (
                    200,
                    {"jobs": [r.status_payload() for r in self.registry.records()]},
                    None,
                )
            raise HttpError(405, f"{method} not supported on {path}")
        if path == "/shutdown" and method == "POST":
            # The response is written before the shutdown event fires, so
            # the requesting client always hears the acknowledgement.
            return 202, {"status": "shutting down"}, self.request_shutdown
        if path.startswith("/jobs/"):
            return (*self._job_endpoint(method, path), None)
        raise HttpError(404, f"no such endpoint: {method} {request.path}")

    async def _submit(self, request: Request) -> Tuple[int, Any]:
        """``POST /jobs``: parse a manifest/sweep/exploration body, enqueue it."""
        if self._stopping:
            raise HttpError(503, "server is shutting down")
        payload = request.json()
        if isinstance(payload, dict) and "workloads" in payload:
            kind = "explore"
        elif isinstance(payload, dict) and "sweep" in payload:
            kind = "sweep"
        else:
            kind = "batch"
        _reject_protocol_entries(payload)
        _reject_oversized_generators(payload, MAX_GENERATOR_OPERATIONS)
        estimated = _estimated_job_count(payload, kind)
        if estimated > MAX_JOBS_PER_SUBMISSION:
            raise HttpError(
                400,
                f"submission expands to {estimated} jobs, over this server's "
                f"limit of {MAX_JOBS_PER_SUBMISSION}; split it "
                "into smaller submissions",
            )
        try:
            # Building a submission validates configs and constructs graphs
            # (generator entries *generate* theirs) — real CPU work, so it
            # runs on a worker thread: the size gates above bound how much,
            # and the event loop keeps serving /healthz and every other
            # client meanwhile.
            spec, jobs = await asyncio.to_thread(
                self._build_submission, kind, payload
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        if not jobs:
            raise HttpError(400, "manifest body contains no jobs")
        record = self.registry.create(kind, payload, jobs)
        record.spec = spec
        # A submission whose client is tracing ships its span context in the
        # trace header; the job thread then records into a child recorder of
        # that context, so the client's exported trace shows this replica's
        # stages under the submitting span.
        record.trace_parent = request.headers.get(TRACE_HEADER) or None
        self._queue.put_nowait(record.job_id)
        _LOG.info(
            "accepted %s submission %s (%d jobs)", kind, record.job_id, len(jobs)
        )
        return 202, record.status_payload()

    def _build_submission(self, kind: str, payload: Any) -> Tuple[Any, List[Any]]:
        """Parse one gated submission body into ``(spec, jobs)``.

        Pure function of the payload (plus this server's solver override),
        safe to run off the event loop.  ``spec`` is the validated
        exploration spec for ``kind == "explore"`` and ``None`` otherwise;
        ``jobs`` are batch jobs (manifest/sweep) or exploration candidates.
        """
        if kind == "explore":
            from repro.explore import ExplorationSpec, enumerate_candidates

            spec = ExplorationSpec.from_payload(payload, source="exploration body")
            return spec, enumerate_candidates(spec)
        if kind == "sweep":
            jobs = expand_sweep(payload)
        else:
            jobs = manifest_jobs(payload, source="manifest body")
        if self.config.solver is not None:
            # Exploration candidates are built lazily; the exploration
            # engine applies this same override per candidate instead.
            from repro.synthesis.config import apply_solver_override

            for job in jobs:
                job.config = apply_solver_override(job.config, self.config.solver)
        return None, jobs

    def _job_endpoint(self, method: str, path: str) -> Tuple[int, Any]:
        """``GET /jobs/{id}`` and ``GET /jobs/{id}/result``."""
        if method != "GET":
            raise HttpError(405, f"{method} not supported on {path}")
        parts = path.split("/")[2:]  # ["<id>"] or ["<id>", "result"]
        record = self.registry.get(parts[0])
        if record is None:
            raise HttpError(404, f"no such job: {parts[0]}")
        if len(parts) == 1:
            return 200, record.status_payload()
        if len(parts) == 2 and parts[1] == "result":
            return self._result(record)
        raise HttpError(404, f"no such endpoint: GET {path}")

    def _result(self, record: JobRecord) -> Tuple[int, Any]:
        """``GET /jobs/{id}/result``: the full report, once there is one."""
        if record.status == DONE:
            payload = record.report.to_json_payload()
            payload["job_id"] = record.job_id
            if record.trace_summary is not None:
                payload["trace"] = record.trace_summary
            return 200, payload
        if record.status == FAILED:
            return 500, {"job_id": record.job_id, "status": FAILED, "error": record.error}
        raise HttpError(
            409, f"job {record.job_id} is still {record.status}; poll GET /jobs/{{id}}"
        )

    def _healthz_payload(self) -> Any:
        """``GET /healthz``: liveness plus queue and cache gauges."""
        stats = self.cache.stats
        return {
            "status": "shutting-down" if self._stopping else "ok",
            "uptime_s": round(time.time() - self._started_at, 3)
            if self._started_at is not None
            else 0.0,
            "workers": self.config.workers,
            "engine_workers": self.config.engine_workers,
            "jobs": self.registry.counts(),
            "cache": {
                "entries": len(self.cache),
                "memory_hits": stats.memory_hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "evictions": stats.evictions,
                "dir": str(self.config.cache_dir) if self.config.cache_dir else None,
            },
        }

    def _update_gauges(self) -> None:
        """Refresh the queue-depth gauge right before a ``/metrics`` scrape."""
        gauge = obs_metrics.queue_depth_gauge()
        for state, count in self.registry.counts().items():
            gauge.set(count, state=state)

    def _stats_payload(self) -> Any:
        """``GET /stats``: the full per-tier hit/miss/claim counter set.

        ``/healthz`` keeps its slim historical shape for liveness probes;
        this endpoint is the observability surface — everything
        :class:`~repro.batch.cache.CacheStats` counts (per-tier hits,
        single-flight claims, waits, takeovers), per-tier write counters,
        and which backend the cache is running.
        """
        return {
            "backend": self.cache.backend_name,
            "cache_addr": self.config.cache_addr,
            "cache_dir": str(self.config.cache_dir)
            if self.config.cache_dir
            else None,
            "entries": len(self.cache),
            "cache": self.cache.stats.as_dict(),
            "tiers": self.cache.tier_counters(),
            "jobs": self.registry.counts(),
        }
