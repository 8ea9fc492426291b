"""Command-line interface: synthesize a chip for an assay protocol.

Usage
-----
Synthesize one of the built-in paper assays::

    python -m repro --assay PCR --mixers 2

or a custom protocol stored as JSON (see ``repro.graph.serialization``)::

    python -m repro --protocol my_assay.json --mixers 3 --detectors 1 \
        --svg chip.svg

The command prints the synthesis report (schedule, architecture, layout
metrics) and optionally writes the compact layout as an SVG drawing.

Batch mode runs many jobs from a JSON manifest through the stage-granular
batch-synthesis engine (see ``repro.batch.jobs`` for the manifest format)::

    python -m repro batch manifest.json --workers 4 --cache-dir .repro-cache

With a ``--cache-dir`` the stage artifacts persist on disk, so re-running
the same manifest completes without a single solver invocation.

Sweep mode expands a parameter grid into stage-shared jobs (see
:func:`repro.batch.jobs.expand_sweep` for the spec format)::

    python -m repro sweep sweep.json --workers 4 --cache-dir .repro-cache

Sweep points that only vary downstream knobs (say, physical-design
parameters) share the upstream stage artifacts: the schedule is solved once
for the whole grid, and the report's ``stage`` lines show exactly which
stages ran versus were replayed or shared.

Explore mode searches the flow-config × synthetic-workload space for the
Pareto frontier over configurable objectives (see ``repro.explore`` and
``docs/explore.md``)::

    python -m repro explore spec.json --state-dir .repro-explore \
        --cache-dir .repro-cache --json frontier.json

With a ``--state-dir`` the frontier and the evaluated-candidate set persist
after every evaluation chunk, so an interrupted exploration resumes where it
stopped (and the stage cache replays whatever the interrupted run solved).

Serve mode runs the long-lived HTTP synthesis service (see
``repro.service`` and ``docs/service.md``)::

    python -m repro serve --port 8642 --workers 2 --cache-dir .repro-cache

Every job-running mode also accepts ``--cache-backend`` (``memory``,
``disk``, or ``shared``) and — for ``shared`` — ``--cache-addr HOST:PORT``
pointing at a ``repro cache-daemon``, which pools stage artifacts and
single-flight claims across processes so N replicas perform each solve
exactly once between them::

    python -m repro cache-daemon --port 8643
    python -m repro serve --port 8642 --cache-addr 127.0.0.1:8643

Simulate mode runs the full flow with the Monte-Carlo verification stage
enabled and reports the stochastic makespan distribution and the
fault-recovery rate instead of a single deterministic number::

    python -m repro simulate --assay PCR --trials 64 --jitter uniform \
        --fault-rate 0.05

Every job-running mode accepts ``--solver`` to force both ILPs onto one
registered solver backend (``highs``, ``branch-and-bound``, or the default
``portfolio`` which falls back from HiGHS to the dependency-free branch
and bound when no usable incumbent arrives within the time cap).

Batch manifests and sweep specs are then submitted over HTTP
(``POST /jobs``) and share one hot in-process stage cache across requests,
including concurrent ones.

See ``docs/cli.md`` for the full subcommand and exit-code reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.graph.library import PAPER_ASSAYS, assay_by_name
from repro.graph.serialization import load_graph
from repro.ilp.backends import backend_names
from repro.synthesis.config import (
    FlowConfig,
    SchedulerEngine,
    SynthesisEngine,
    apply_solver_override,
)
from repro.synthesis.flow import synthesize
from repro.synthesis.report import result_report


def _add_solver_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--solver`` override: one backend for both ILPs.

    Applies to every job of a batch/sweep/service submission, overriding
    both ``scheduler_backend`` and ``archsyn_backend`` of each job's flow
    config (per-job manifest values included) — the operational "run this
    whole workload on that solver" switch.  The semantics live in
    :func:`repro.synthesis.config.apply_solver_override`.
    """
    parser.add_argument(
        "--solver",
        choices=sorted(backend_names()),
        default=None,
        help="solver backend for both ILPs (default: each config's own "
        "backends, normally 'portfolio' = HiGHS with branch-and-bound "
        "fallback)",
    )


def _add_obs_arguments(
    parser: argparse.ArgumentParser, trace: bool = True
) -> None:
    """The shared observability flags of every job-running subcommand.

    ``--log-level`` attaches a stderr handler to the ``repro.*`` logger
    taxonomy (see :mod:`repro.obs.logs`); ``--log-json`` switches it to
    one-object-per-line JSON records (and implies ``--log-level info`` when
    no level is given).  ``--trace-out`` installs a trace recorder for the
    run and writes the collected spans as Chrome trace-event JSON —
    loadable in Perfetto or ``chrome://tracing`` (see docs/observability.md).
    """
    from repro.obs.logs import LOG_LEVELS

    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help="enable logging for the repro.* subsystems at this level "
        "(default: logging stays silent)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines (implies --log-level info "
        "when --log-level is not given)",
    )
    if trace:
        parser.add_argument(
            "--trace-out",
            dest="trace_out",
            type=Path,
            default=None,
            help="trace this run and write Chrome trace-event JSON here "
            "(open in Perfetto or chrome://tracing)",
        )


def _configure_obs_logging(
    args: argparse.Namespace, default_level: Optional[str] = None
) -> None:
    """Apply the ``--log-level``/``--log-json`` flags, if any."""
    from repro.obs.logs import configure_logging

    level = getattr(args, "log_level", None)
    if level is None and getattr(args, "log_json", False):
        level = "info"
    if level is None:
        level = default_level
    if level is not None:
        configure_logging(level=level, json_lines=getattr(args, "log_json", False))


def _observability(args: argparse.Namespace):
    """Context manager wiring the obs flags around one CLI run.

    Configures logging immediately; when ``--trace-out`` was given,
    installs a per-run trace recorder under a root ``repro`` span and, on
    the way out (success or failure), writes the Chrome trace-event JSON
    export to the requested path.
    """
    import contextlib

    _configure_obs_logging(args)
    trace_out = getattr(args, "trace_out", None)

    @contextlib.contextmanager
    def _session():
        if trace_out is None:
            yield None
            return
        from repro.obs.trace import (
            TraceRecorder,
            install_recorder,
            span as obs_span,
            uninstall_recorder,
        )

        rec = TraceRecorder()
        token = install_recorder(rec)
        try:
            with obs_span("repro", category="cli"):
                yield rec
        finally:
            uninstall_recorder(token)
            rec.write(trace_out)
            print(f"trace written to {trace_out}", file=sys.stderr)

    return _session()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesize a flow-based microfluidic biochip with distributed channel storage.",
        epilog="Batch mode: 'repro batch MANIFEST.json [--workers N] [--cache-dir DIR]' runs "
        "many jobs from a JSON manifest through the stage-granular batch engine "
        "(see 'repro batch --help').  Sweep mode: 'repro sweep SPEC.json' expands a "
        "parameter grid into stage-shared jobs (see 'repro sweep --help').  "
        "Explore mode: 'repro explore SPEC.json' searches the config × "
        "workload space for a Pareto frontier (see 'repro explore --help' "
        "and docs/explore.md).  "
        "Serve mode: 'repro serve' runs the long-lived HTTP synthesis service "
        "(see 'repro serve --help' and docs/service.md).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--assay",
        choices=sorted(PAPER_ASSAYS),
        help="one of the paper's benchmark assays",
    )
    source.add_argument(
        "--protocol",
        type=Path,
        help="path to a sequencing-graph JSON file",
    )
    parser.add_argument("--mixers", type=int, default=2, help="number of mixers (default 2)")
    parser.add_argument("--detectors", type=int, default=0, help="number of detectors (default 0)")
    parser.add_argument("--heaters", type=int, default=0, help="number of heaters (default 0)")
    parser.add_argument("--transport-time", type=int, default=10,
                        help="device-to-device transport time u_c in seconds (default 10)")
    parser.add_argument("--grid", type=int, nargs=2, metavar=("ROWS", "COLS"), default=(4, 4),
                        help="connection-grid size (default 4 4)")
    parser.add_argument("--scheduler", choices=["auto", "ilp", "list"], default="auto",
                        help="scheduling engine (default auto)")
    parser.add_argument("--synthesis", choices=["heuristic", "ilp"], default="heuristic",
                        help="architectural-synthesis engine (default heuristic)")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="ILP time limit in seconds (default 60)")
    _add_solver_argument(parser)
    parser.add_argument("--no-storage-objective", action="store_true",
                        help="optimize execution time only (the Fig. 9 baseline)")
    parser.add_argument("--svg", type=Path, default=None,
                        help="write the compact layout to this SVG file")
    parser.add_argument("--schedule-table", action="store_true",
                        help="also print the full (operation, device, start, end) table")
    _add_obs_arguments(parser)
    return parser


def _config_from_args(args: argparse.Namespace) -> FlowConfig:
    config = FlowConfig(
        num_mixers=args.mixers,
        num_detectors=args.detectors,
        num_heaters=args.heaters,
        transport_time=args.transport_time,
        grid_rows=args.grid[0],
        grid_cols=args.grid[1],
        scheduler=SchedulerEngine(args.scheduler),
        synthesis=SynthesisEngine(args.synthesis),
        ilp_time_limit_s=args.time_limit,
        archsyn_time_limit_s=args.time_limit,
        storage_aware=not args.no_storage_objective,
    )
    return apply_solver_override(config, args.solver)


def _add_cache_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared cache-backend flags of every job-running subcommand.

    ``--cache-backend`` picks a name from the
    :mod:`repro.batch.cache_backends` registry; the default keeps the
    historical behavior (``disk`` when ``--cache-dir`` is given, plain
    ``memory`` otherwise).  ``--cache-addr`` points the ``shared`` backend
    at a ``repro cache-daemon`` — and, given alone, implies
    ``--cache-backend shared``.
    """
    from repro.batch import cache_backend_names

    parser.add_argument(
        "--cache-backend",
        choices=sorted(cache_backend_names()),
        default=None,
        help="cache backend behind the in-memory LRU (default: 'disk' with "
        "--cache-dir, else 'memory'); 'shared' pools artifacts and "
        "single-flight claims across processes via a repro cache-daemon",
    )
    parser.add_argument(
        "--cache-addr",
        default=None,
        metavar="HOST:PORT",
        help="address of a running 'repro cache-daemon' (required by "
        "--cache-backend shared; implies it when given alone)",
    )


def _build_cache(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Build the configured cache (wrapped for claims when cross-process).

    Misconfigurations (``shared`` without an address, a malformed address)
    surface as ``parser.error`` — exit code 2, like every other CLI input
    problem.  When the backend arbitrates cross-process claims, the cache
    is wrapped in a :class:`~repro.service.singleflight.SingleFlightCache`
    so concurrent CLI runs against one daemon solve each stage once
    between them, exactly like service replicas do.
    """
    from repro.batch import ResultCache

    backend = args.cache_backend
    if backend is None and args.cache_addr is not None:
        backend = "shared"
    if backend == "shared" and args.cache_addr is None:
        parser.error("--cache-backend shared requires --cache-addr HOST:PORT")
    try:
        cache = ResultCache(
            cache_dir=args.cache_dir, backend=backend, cache_addr=args.cache_addr
        )
    except ValueError as exc:
        parser.error(str(exc))
    if cache.claim_tier is not None:
        from repro.service.singleflight import SingleFlightCache

        return SingleFlightCache(cache)
    return cache


def _build_jobs_parser(prog: str, description: str, source_help: str) -> argparse.ArgumentParser:
    """Shared argument surface of the ``batch`` and ``sweep`` subcommands."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("spec", type=Path, help=source_help)
    parser.add_argument("--workers", type=int, default=1,
                        help="process count for stage execution (default 1 = serial)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the persistent stage-cache tier (default: memory only)")
    _add_cache_backend_arguments(parser)
    parser.add_argument("--json", dest="json_out", type=Path, default=None,
                        help="also write per-job metrics and batch totals to this JSON file")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort the batch on the first job failure")
    _add_solver_argument(parser)
    _add_obs_arguments(parser)
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    return _build_jobs_parser(
        prog="repro batch",
        description="Run a batch of synthesis jobs from a JSON manifest "
        "through the stage-granular batch-synthesis engine.",
        source_help="path to the JSON job manifest",
    )


def build_sweep_parser() -> argparse.ArgumentParser:
    return _build_jobs_parser(
        prog="repro sweep",
        description="Expand a parameter-grid sweep spec into stage-shared "
        "jobs and run them through the batch engine; sweep points that only "
        "vary downstream knobs reuse the upstream stage artifacts (e.g. a "
        "physical-design sweep performs exactly one scheduling solve).",
        source_help="path to the JSON sweep spec "
        '(e.g. {"assay": "PCR", "sweep": {"pitch": [5, 6]}})',
    )


def build_explore_parser() -> argparse.ArgumentParser:
    """Argument surface of the ``repro explore`` subcommand."""
    from repro.explore import strategy_names

    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="Search the flow-config × workload space for the Pareto "
        "frontier over the spec's objectives, executing candidates through "
        "the stage-granular batch engine so configs sharing upstream stages "
        "share their solves (see docs/explore.md for the spec format).",
    )
    parser.add_argument("spec", type=Path, help="path to the JSON exploration spec")
    parser.add_argument("--workers", type=int, default=1,
                        help="process count for stage execution (default 1 = serial)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the persistent stage-cache tier (default: memory only)")
    _add_cache_backend_arguments(parser)
    parser.add_argument("--state-dir", type=Path, default=None,
                        help="directory for resumable exploration state "
                        "(frontier + evaluated candidates; default: no persistence)")
    parser.add_argument("--json", dest="json_out", type=Path, default=None,
                        help="also write the frontier and exploration totals to this JSON file")
    parser.add_argument("--budget", type=int, default=None,
                        help="override the spec's budget (max full evaluations)")
    parser.add_argument("--strategy", choices=sorted(strategy_names()), default=None,
                        help="override the spec's search strategy")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="do not seed candidate solves with neighboring "
                        "candidates' schedules (A/B switch; the frontier "
                        "contents are identical either way)")
    _add_solver_argument(parser)
    _add_obs_arguments(parser)
    return parser


def run_explore(argv: List[str]) -> int:
    """The ``repro explore`` subcommand; returns a process exit code.

    Exit codes follow the repository convention: ``2`` for an unusable spec
    (malformed JSON, unknown axes/objectives/strategy, state belonging to a
    different spec), ``1`` when every evaluated candidate failed (there is
    no frontier to report), ``0`` otherwise.
    """
    from repro.explore import (
        ExplorationEngine,
        format_exploration_report,
        load_spec,
    )

    parser = build_explore_parser()
    args = parser.parse_args(argv)
    if args.budget is not None and args.budget < 1:
        parser.error("--budget must be at least 1")
    if not args.spec.exists():
        parser.error(f"exploration spec {args.spec} does not exist")
    try:
        spec = load_spec(args.spec)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid exploration spec: {exc}", file=sys.stderr)
        return 2
    if args.budget is not None:
        spec.budget = args.budget
    if args.strategy is not None:
        spec.strategy = args.strategy

    state_path = (
        args.state_dir / "explore_state.json" if args.state_dir is not None else None
    )
    cache = _build_cache(args, parser)
    engine = ExplorationEngine(
        spec,
        cache=cache,
        max_workers=max(1, args.workers),
        state_path=state_path,
        solver=args.solver,
        warm_start=not args.no_warm_start,
    )
    try:
        with _observability(args):
            report = engine.run()
    except ValueError as exc:
        # Structural problems surfaced mid-setup (foreign state file,
        # duplicate candidate ids) are input errors, not synthesis failures.
        print(f"invalid exploration: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - infrastructure failure
        print(f"exploration failed: {exc}", file=sys.stderr)
        return 1
    finally:
        cache.close()

    print(format_exploration_report(report))
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report.to_json_payload(), indent=2))
        print(f"\nexploration frontier written to {args.json_out}")

    if report.evaluated > 0 and report.failed == report.evaluated:
        print("every evaluated candidate failed", file=sys.stderr)
        return 1
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument surface of the ``repro serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived synthesis service: an asyncio HTTP "
        "server accepting batch manifests and sweep specs on POST /jobs, with "
        "one shared stage cache so concurrent and repeated submissions reuse "
        "each other's schedule/architecture artifacts (see docs/service.md).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port; 0 binds an ephemeral port (default 8642)")
    parser.add_argument("--workers", type=int, default=2,
                        help="number of jobs run concurrently (default 2)")
    parser.add_argument("--engine-workers", type=int, default=1,
                        help="process count for each job's stage tiers (default 1 = inline)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for the persistent stage-cache tier "
                        "(default: memory only; required for restart resume)")
    _add_cache_backend_arguments(parser)
    parser.add_argument("--drain-timeout", type=float, default=5.0,
                        help="seconds shutdown waits for running jobs before "
                        "flushing the cache and exiting (default 5)")
    _add_solver_argument(parser)
    _add_obs_arguments(parser, trace=False)
    return parser


def run_serve(argv: List[str]) -> int:
    """The ``repro serve`` subcommand; blocks until shutdown, returns 0."""
    import asyncio
    import contextlib
    import signal

    from repro.service import ServiceConfig, SynthesisService

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.workers < 1 or args.engine_workers < 1:
        parser.error("--workers and --engine-workers must be at least 1")
    # Long-running processes log their lifecycle by default; --log-level
    # still overrides (e.g. 'debug', or 'error' to quiet them down).
    _configure_obs_logging(args, default_level="info")
    cache_backend = args.cache_backend
    if cache_backend is None and args.cache_addr is not None:
        cache_backend = "shared"
    if cache_backend == "shared" and args.cache_addr is None:
        parser.error("--cache-backend shared requires --cache-addr HOST:PORT")

    try:
        service = SynthesisService(
            ServiceConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                engine_workers=args.engine_workers,
                cache_dir=args.cache_dir,
                cache_backend=cache_backend,
                cache_addr=args.cache_addr,
                drain_timeout_s=args.drain_timeout,
                solver=args.solver,
            )
        )
    except ValueError as exc:
        parser.error(str(exc))

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # Not every platform wires loop signal handlers (Windows);
            # KeyboardInterrupt still lands in the except below there.
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, service.request_shutdown)
        await service.start()
        backend_name = getattr(service.cache.inner, "backend_name", "memory")
        print(
            f"repro service listening on http://{args.host}:{service.bound_port} "
            f"({args.workers} worker(s), cache_dir={args.cache_dir}, "
            f"cache_backend={backend_name})",
            flush=True,
        )
        try:
            await service.serve_forever()
        finally:
            flushed = service.flushed_on_shutdown
            print(f"repro service stopped ({flushed or 0} artifact(s) flushed)", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def build_cache_daemon_parser() -> argparse.ArgumentParser:
    """Argument surface of the ``repro cache-daemon`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro cache-daemon",
        description="Run the shared cache daemon: a small key-value + "
        "single-flight-claim server that 'repro serve' replicas and batch "
        "runs configured with '--cache-backend shared' pool their stage "
        "artifacts through, so N processes perform each solve exactly once "
        "between them (see docs/service.md).  Entries are pickles: bind "
        "only to loopback or a trusted private network.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8643,
                        help="TCP port; 0 binds an ephemeral port (default 8643)")
    parser.add_argument("--max-entries", type=int, default=4096,
                        help="bound on stored entries; least-recently-used "
                        "entries are evicted (default 4096)")
    _add_obs_arguments(parser, trace=False)
    return parser


def run_cache_daemon(argv: List[str]) -> int:
    """The ``repro cache-daemon`` subcommand; blocks until shutdown, returns 0."""
    import asyncio
    import contextlib
    import signal

    from repro.service.cachedaemon import CacheDaemon, CacheDaemonConfig

    parser = build_cache_daemon_parser()
    args = parser.parse_args(argv)
    if args.max_entries < 1:
        parser.error("--max-entries must be at least 1")
    _configure_obs_logging(args, default_level="info")

    daemon = CacheDaemon(
        CacheDaemonConfig(host=args.host, port=args.port, max_entries=args.max_entries)
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, daemon.request_shutdown)
        await daemon.start()
        print(
            f"repro cache daemon listening on http://{args.host}:{daemon.bound_port} "
            f"(max_entries={args.max_entries})",
            flush=True,
        )
        try:
            await daemon.serve_forever()
        finally:
            print("repro cache daemon stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def build_simulate_parser() -> argparse.ArgumentParser:
    """Argument surface of the ``repro simulate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro simulate",
        description="Synthesize an assay with the Monte-Carlo verification "
        "stage enabled and report the stochastic makespan distribution "
        "(p50/p95/p99), the fault-recovery rate, and violation diagnostics "
        "(see docs/simulation.md for the fault model and seed semantics).",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--assay", choices=sorted(PAPER_ASSAYS),
                        help="one of the paper's benchmark assays")
    source.add_argument("--protocol", type=Path,
                        help="path to a sequencing-graph JSON file")
    parser.add_argument("--mixers", type=int, default=None,
                        help="number of mixers (default: the assay's paper setup)")
    parser.add_argument("--detectors", type=int, default=None,
                        help="number of detectors (default: the assay's paper setup)")
    parser.add_argument("--heaters", type=int, default=None,
                        help="number of heaters (default: the assay's paper setup)")
    parser.add_argument("--scheduler", choices=["auto", "ilp", "list"], default="auto",
                        help="scheduling engine (default auto)")
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="ILP time limit in seconds (default 60)")
    _add_solver_argument(parser)
    parser.add_argument("--trials", type=int, default=32,
                        help="number of Monte-Carlo trials (default 32)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed of the trial streams (default 0)")
    parser.add_argument("--jitter", choices=["none", "uniform", "normal"],
                        default="none",
                        help="duration-jitter distribution (default none)")
    parser.add_argument("--jitter-spread", type=float, default=0.1,
                        help="jitter spread as a fraction of nominal duration "
                        "(default 0.1)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="per-operation device-fault probability (default 0)")
    parser.add_argument("--channel-fault-rate", type=float, default=0.0,
                        help="per-transport channel-fault probability (default 0)")
    parser.add_argument("--max-retries", type=int, default=1,
                        help="retries on a faulted device before migrating "
                        "(default 1)")
    parser.add_argument("--wash-time", type=int, default=0,
                        help="contamination wash time between unrelated "
                        "operations on one device (default 0 = off)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes to shard trials across; the "
                        "report is byte-identical for any count (default 1)")
    parser.add_argument("--json", dest="json_out", type=Path, default=None,
                        help="also write the verification report to this JSON file")
    _add_obs_arguments(parser)
    return parser


def run_simulate(argv: List[str]) -> int:
    """The ``repro simulate`` subcommand; returns a process exit code."""
    from dataclasses import replace as dc_replace

    parser = build_simulate_parser()
    args = parser.parse_args(argv)
    if args.assay:
        graph = assay_by_name(args.assay)
        config = FlowConfig.paper_defaults_for(args.assay)
    else:
        if not args.protocol.exists():
            parser.error(f"protocol file {args.protocol} does not exist")
        graph = load_graph(args.protocol)
        config = FlowConfig()
    overrides = {
        "num_mixers": args.mixers,
        "num_detectors": args.detectors,
        "num_heaters": args.heaters,
    }
    config = dc_replace(
        config,
        **{name: value for name, value in overrides.items() if value is not None},
        scheduler=SchedulerEngine(args.scheduler),
        ilp_time_limit_s=args.time_limit,
        verify=True,
        verify_trials=args.trials,
        verify_seed=args.seed,
        verify_jitter=args.jitter,
        verify_jitter_spread=args.jitter_spread,
        verify_fault_rate=args.fault_rate,
        verify_channel_fault_rate=args.channel_fault_rate,
        verify_max_retries=args.max_retries,
        verify_wash_time=args.wash_time,
        verify_workers=args.workers,
    )
    config = apply_solver_override(config, args.solver)
    try:
        with _observability(args):
            result = synthesize(graph, config)
    except Exception as exc:  # noqa: BLE001 - includes VerificationError
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1

    report = result.verification
    payload = report.as_dict()
    # Mirror the batch/service payload shape: the deterministic replay's
    # diagnostics travel with the distribution (empty on success — a
    # conflicting replay fails above with VerificationError).
    payload["simulation_problems"] = list(result.simulation_problems or [])
    print(
        f"verification of {graph.name}: {payload['trials']} trial(s), "
        f"seed {args.seed}, scheduler={result.scheduler_engine}"
    )
    print(f"  deterministic makespan: {payload['deterministic_makespan']}")
    print(
        f"  makespan p50/p95/p99: {payload['makespan_p50']}/"
        f"{payload['makespan_p95']}/{payload['makespan_p99']} "
        f"(mean {payload['makespan_mean']}, max {payload['makespan_max']})"
    )
    print(
        f"  faults: {payload['faults_injected']} injected, "
        f"{payload['faults_recovered']} recovered "
        f"(recovery rate {payload['recovery_rate']})"
    )
    print(
        f"  reroutes: {payload['reroutes']}, retries: {payload['retries']}, "
        f"migrations: {payload['migrations']}, washes: {payload['washes']}"
    )
    for note in payload["violations"]:
        print(f"  violation: {note}")

    if args.json_out is not None:
        args.json_out.write_text(json.dumps(payload, indent=2))
        print(f"\nverification report written to {args.json_out}")
    return 0


def _run_jobs_command(argv: List[str], sweep: bool) -> int:
    """Shared implementation of the ``batch`` and ``sweep`` subcommands."""
    from repro.batch import (
        BatchSynthesisEngine,
        format_batch_report,
        load_manifest,
        load_sweep,
    )

    parser = build_sweep_parser() if sweep else build_batch_parser()
    args = parser.parse_args(argv)
    kind = "sweep spec" if sweep else "manifest"

    if not args.spec.exists():
        parser.error(f"{kind} file {args.spec} does not exist")
    try:
        jobs = load_sweep(args.spec) if sweep else load_manifest(args.spec)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"invalid {kind}: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"{kind} contains no jobs", file=sys.stderr)
        return 2
    for job in jobs:
        job.config = apply_solver_override(job.config, args.solver)

    cache = _build_cache(args, parser)
    engine = BatchSynthesisEngine(
        max_workers=max(1, args.workers), cache=cache, fail_fast=args.fail_fast
    )
    try:
        with _observability(args):
            report = engine.run(jobs)
    except Exception as exc:  # noqa: BLE001 - fail-fast surfaces the first job error
        print(f"batch failed: {exc}", file=sys.stderr)
        return 1
    finally:
        cache.close()

    print(format_batch_report(report))

    if args.json_out is not None:
        args.json_out.write_text(json.dumps(report.to_json_payload(), indent=2))
        print(f"\nbatch metrics written to {args.json_out}")

    return 0 if report.num_failed == 0 else 1


def run_batch(argv: List[str]) -> int:
    """The ``repro batch`` subcommand; returns a process exit code."""
    return _run_jobs_command(argv, sweep=False)


def run_sweep(argv: List[str]) -> int:
    """The ``repro sweep`` subcommand; returns a process exit code."""
    return _run_jobs_command(argv, sweep=True)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return run_batch(list(argv[1:]))
    if argv and argv[0] == "sweep":
        return run_sweep(list(argv[1:]))
    if argv and argv[0] == "explore":
        return run_explore(list(argv[1:]))
    if argv and argv[0] == "serve":
        return run_serve(list(argv[1:]))
    if argv and argv[0] == "cache-daemon":
        return run_cache_daemon(list(argv[1:]))
    if argv and argv[0] == "simulate":
        return run_simulate(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.assay:
        graph = assay_by_name(args.assay)
    else:
        if not args.protocol.exists():
            parser.error(f"protocol file {args.protocol} does not exist")
        graph = load_graph(args.protocol)

    config = _config_from_args(args)
    try:
        with _observability(args):
            result = synthesize(graph, config)
    except Exception as exc:  # noqa: BLE001 - report synthesis failures as exit code
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 1

    print(result_report(result))

    if args.schedule_table:
        print()
        print("schedule (operation, device, start, end):")
        for op_id, device, start, end in result.schedule.as_table():
            print(f"  {op_id:<12} {device:<10} {start:>6} {end:>6}")

    if args.svg is not None:
        from repro.physical.svg_export import layout_to_svg

        layout_to_svg(result.physical.compact_layout, args.svg)
        print(f"\ncompact layout written to {args.svg}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
