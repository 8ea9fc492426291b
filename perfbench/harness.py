"""Run loop shared by the three workloads: set-up, timed region, traced run.

A workload object supplies the inputs and the operations; this module
owns everything that must be identical across workloads — how set-up is
repeated and timed, how the timed region is bounded, how latency
percentiles and throughput are computed, how a traced run alternates
traced and untraced blocks, and the shape of the result line.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from layers import LAYERS, LayerWrappers, Node, analyze, nodes_from_spans
from reference import host_factor

#: Set-up runs this many times per process; ``setup_s`` is the median.
SETUP_REPS = 3

#: Reference timings this close to a block also count for its host factor.
HOST_WINDOW_S = 1.0

#: Where run records and Chrome traces go, relative to the checkout root.
OUTPUT_DIR = Path(".perfbench")


@dataclass
class Op:
    """One closed-loop operation: a job, a submission or a report."""

    latency_s: float
    ok: bool
    #: Validated synthesis jobs (or reports) the operation delivered.
    jobs: int
    kind: str = ""


@dataclass
class Check:
    """One output check that runs outside the timed region."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class BlockResult:
    ops: List[Op]
    wall_s: float
    traced: bool
    #: Host-speed factor around the block (``reference.host_factor``).
    host: float = 1.0


class Workload:
    """Interface of a workload; see ``ilp_exact.py`` for a full example."""

    name = ""
    why = ""
    #: Blocks per cycle: a run ends on a whole number of cycles.
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Generate inputs, start services, run one untimed warm-up pass."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def block(self, traced: bool) -> List[Op]:
        """Run one whole block: a pass over the inputs, or one round.

        Blocks always complete, and runs end on whole cycles of blocks, so
        every run holds the operations in the same proportions and the
        latency percentiles fall on the same inputs whatever the run
        length.
        """
        raise NotImplementedError

    def prepare(self) -> None:
        """Make the next block's inputs; runs between blocks, untimed."""

    def must_continue(self) -> bool:
        """True while the timed region has not yet done its minimum work."""
        return False

    def checks(self) -> List[Check]:
        """Output checks run after the timed region."""
        return []

    def quality(self) -> Dict[str, float]:
        """``makespan_total``, ``valves_total`` and ``area_total``."""
        raise NotImplementedError

    def intended(self, layer: str) -> bool:
        """Whether ``layer`` is one this workload is meant to stress."""
        raise NotImplementedError

    def trace_nodes(self, spans: List[Any]) -> Tuple[List[Node], List[Node]]:
        """Analysis nodes and root nodes from a traced run's spans."""
        nodes = nodes_from_spans(spans)
        return nodes, [n for n in nodes if n.name == "op"]

    def layer_metrics(self, untraced: List[BlockResult]) -> Dict[str, Tuple[float, str]]:
        """Workload-specific per-layer values (counters off payloads ...)."""
        return {}

    def record(self) -> Dict[str, Any]:
        """Seed, input fingerprints and config points of this run."""
        return {}


def chip_summary(result: Any) -> Tuple[int, int, int]:
    """(t_E, valves, compact width x height) of a ``SynthesisResult``."""
    width, height = result.physical.compact_dimensions
    return (result.execution_time, result.architecture.num_valves, width * height)


def quality_totals(summaries: List[Tuple[int, int, int]]) -> Dict[str, float]:
    """The three deterministic chip-quality metrics over ``summaries``."""
    return {name: float(sum(s[i] for s in summaries))
            for i, name in enumerate(("makespan_total", "valves_total", "area_total"))}


def design_problems(result: Any) -> List[str]:
    """Architecture and compact-layout validation plus a simulator replay."""
    from repro.simulation.simulator import ChipSimulator

    problems = result.architecture.validate() + result.physical.compact_layout.validate()
    replay = ChipSimulator(result.schedule, result.architecture).run()
    problems += replay.problems
    if replay.makespan != result.execution_time:
        problems.append(f"replay makespan {replay.makespan} != schedule {result.execution_time}")
    return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (Python's exclusive quantile method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_setup(factory: Callable[[int], Workload], seed: int, import_s: float) -> Tuple[Workload, float]:
    """Set up :data:`SETUP_REPS` times; keep the last instance running."""
    durations = []
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.teardown()
        start = time.perf_counter()
        workload = factory(seed)
        workload.setup()
        durations.append(time.perf_counter() - start)
    workload.setup_reps_s = [import_s] + durations
    return workload, import_s + statistics.median(durations)


def timed_region(workload: Workload, seconds: float) -> Tuple[List[BlockResult], float, List[Tuple[float, float]]]:
    """Closed loop of whole blocks until they add up to ``seconds``.

    Input preparation between blocks and the host-speed reference timed
    before the first block and after each block are not counted.  A
    block's host factor is the median of the reference timings just
    before and after it and of any others within :data:`HOST_WINDOW_S`
    of it, so a short block is not scaled by one noisy reference timing.
    Returns the blocks, the peak RSS as of the end of the workload's
    minimum work (so memory the program retains per operation does not
    make a faster program read as a bigger one), and the reference
    timings as (time, factor) pairs.
    """
    blocks: List[BlockResult] = []
    spans: List[Tuple[float, float]] = []
    rss = None
    refs = [(time.perf_counter(), host_factor())]
    while (sum(b.wall_s for b in blocks) < seconds or workload.must_continue()
           or len(blocks) % workload.cycle):
        workload.prepare()
        t0 = time.perf_counter()
        ops = workload.block(False)
        t1 = time.perf_counter()
        refs.append((time.perf_counter(), host_factor()))
        blocks.append(BlockResult(ops, t1 - t0, False))
        spans.append((t0, t1))
        if rss is None and not workload.must_continue():
            rss = peak_rss_mb()
    return blocks, rss, assign_hosts(blocks, spans, refs)


def assign_hosts(blocks: List[BlockResult], spans: List[Tuple[float, float]],
                 refs: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Set each block's host factor from the reference timings around it.

    ``spans`` are the blocks' (start, end) times and ``refs`` the
    (time, factor) reference timings, one before the first block and one
    after each.  Returns ``refs`` with times relative to the first.
    """
    for index, (block, (t0, t1)) in enumerate(zip(blocks, spans)):
        near = [f for j, (t, f) in enumerate(refs)
                if j in (index, index + 1) or t0 - HOST_WINDOW_S <= t <= t1 + HOST_WINDOW_S]
        block.host = statistics.median(near)
    origin = refs[0][0]
    return [(t - origin, f) for t, f in refs]


def timings(blocks: List[BlockResult], scaled: bool) -> Dict[str, float]:
    """Latency percentiles and the throughput over the whole timed region.

    With ``scaled`` every time is divided by its block's host factor
    (``ref_s``, see ``reference.py``); without, they are wall seconds.
    """
    def host(b: BlockResult) -> float:
        return b.host if scaled else 1.0

    latencies = [op.latency_s / host(b) for b in blocks for op in b.ops]
    jobs = sum(op.jobs for b in blocks for op in b.ops if op.ok)
    return {"latency_p50_s": statistics.median(latencies), "latency_p90_s": percentile(latencies, 90),
            "jobs_per_s": jobs / sum(b.wall_s / host(b) for b in blocks)}


def end_to_end(workload: Workload, blocks: List[BlockResult], rss_mb: float,
               setup_s: float) -> Dict[str, Any]:
    """The end-to-end metrics of an untraced run."""
    scaled = timings(blocks, scaled=True)
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_p50_s": (scaled["latency_p50_s"], "ref_s"),
        "latency_p90_s": (scaled["latency_p90_s"], "ref_s"),
        "jobs_per_s": (scaled["jobs_per_s"], "1/ref_s"),
    }
    units = {"makespan_total": "sim_s", "valves_total": "count", "area_total": "cells"}
    for name, value in workload.quality().items():
        values[name] = (value, units[name])
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_run(workload: Workload, seconds: float, label: str) -> Tuple[Dict[str, Any], List[Op], List[Check]]:
    """Alternate untraced and traced blocks; per-layer metrics from the spans.

    Traced and untraced blocks hold the same mix of operations, so their
    per-operation times compare directly: that ratio is the tracing
    overhead, taken on times scaled by the host factor as in
    :func:`timed_region`.
    """
    from repro.obs.trace import TraceRecorder, install_recorder, uninstall_recorder, validate_chrome_trace

    recorder = TraceRecorder()
    blocks: List[BlockResult] = []
    block_spans: List[Tuple[float, float]] = []
    refs = [(time.perf_counter(), host_factor())]
    while sum(b.wall_s for b in blocks) < seconds or len(blocks) % (2 * workload.cycle):
        traced = len(blocks) % 2 == 1
        workload.prepare()
        t0 = time.perf_counter()
        if traced:
            token = install_recorder(recorder)
            try:
                with LayerWrappers():
                    ops = workload.block(True)
            finally:
                uninstall_recorder(token)
        else:
            ops = workload.block(False)
        t1 = time.perf_counter()
        refs.append((time.perf_counter(), host_factor()))
        blocks.append(BlockResult(ops, t1 - t0, traced))
        block_spans.append((t0, t1))
    assign_hosts(blocks, block_spans, refs)

    spans = recorder.spans()
    nodes, roots = workload.trace_nodes(spans)
    analysis = analyze(nodes, roots, workload.intended)
    traced_blocks = [b for b in blocks if b.traced]
    untraced_blocks = [b for b in blocks if not b.traced]
    traced_ops = sum(len(b.ops) for b in traced_blocks)

    def per_op(total: float) -> float:
        return total / traced_ops if traced_ops else 0.0

    def s_per_op(b: List[BlockResult]) -> float:
        return sum(x.wall_s / x.host for x in b) / max(1, sum(len(x.ops) for x in b))

    metrics: Dict[str, Tuple[float, str]] = {
        "trace.coverage": (analysis.covered_time / analysis.root_time if analysis.root_time else 0.0, "ratio"),
        "trace.intended_share": (analysis.intended_time / analysis.root_time if analysis.root_time else 0.0, "ratio"),
        "trace.overhead": (s_per_op(traced_blocks) / s_per_op(untraced_blocks) - 1.0, "ratio"),
        "trace.ops": (float(traced_ops), "count"),
    }
    for layer in LAYERS:
        if layer.startswith("verify."):
            continue  # reported per request kind below
        metrics[layer + "_s"] = (per_op(analysis.busy_s(layer)), "s/op")
    metrics["schedule.ilp.self_s"] = metrics.pop("schedule.ilp_s")
    for kind in ("jitter", "fault"):
        for part in ("plan", "draws", "replay"):
            metrics[f"verify.{kind}.{part}_s"] = (per_op(analysis.busy_s(f"verify.{part}", kind)), "s/op")
    metrics["archsyn.synth_s"] = (per_op(analysis.inclusive.get("archsyn.synth", 0.0)), "s/op")
    metrics["archsyn.route_s"] = (per_op(analysis.busy_s("archsyn.synth")), "s/op")
    solves = analysis.spans.get("ilp.solve", [])
    synths = analysis.spans.get("archsyn.synth", [])
    gets = analysis.spans.get("cache.get", [])
    coded = analysis.spans.get("cache.encode", []) + analysis.spans.get("cache.decode", [])
    metrics.update({
        "ilp.solves": (per_op(len(solves)), "count/op"),
        # IR size of one pass over the inputs (traced blocks are whole passes).
        "ilp.vars": (sum(s.attributes.get("vars", 0) for s in solves) / len(traced_blocks), "count"),
        "ilp.rows": (sum(s.attributes.get("rows", 0) for s in solves) / len(traced_blocks), "count"),
        "ilp.optimal_ratio": (sum(1 for s in solves if s.attributes.get("status") == "optimal")
                              / len(solves) if solves else 0.0, "ratio"),
        "archsyn.grid_attempts": (len(analysis.spans.get("archsyn.place", [])) / len(synths)
                                  if synths else 0.0, "count/call"),
        "cache.gets": (per_op(len(gets)), "count/op"),
        "cache.hit_ratio": (sum(1 for g in gets if g.attributes.get("hit")) / len(gets)
                            if gets else 0.0, "ratio"),
        "cache.envelope_bytes": (per_op(sum(s.attributes.get("bytes", 0) for s in coded)), "bytes/op"),
        "http.polls": (per_op(len(analysis.spans.get("http.status", []))), "count/op"),
    })
    stages = {"schedule": [0, 0], "archsyn": [0, 0], "physical": [0, 0]}
    for node in nodes:
        stage = node.name.split(":", 1)[1] if node.name.startswith("stage:") else None
        if stage in stages:
            stages[stage][node.attributes.get("action") != "ran"] += 1
    for stage, (ran, reused) in stages.items():
        metrics[f"stage.{stage}.ran"] = (per_op(ran), "count/op")
        metrics[f"stage.{stage}.reused"] = (per_op(reused), "count/op")
    lookups = sum(ran + reused for ran, reused in stages.values())
    metrics["stage.reused_share"] = (sum(r for _, r in stages.values()) / lookups if lookups else 0.0, "ratio")
    # Layers a workload does not reach read zero, so every traced run
    # reports the same metric set.
    for name, unit in (("http.overhead_s", "s/op"), ("daemon.claim_waits", "count/round"),
                       ("daemon.takeovers", "count/round"), ("verify.jitter.trials_per_s", "1/s"),
                       ("verify.fault.trials_per_s", "1/s")):
        metrics[name] = (0.0, unit)
    metrics.update(workload.layer_metrics(untraced_blocks))

    OUTPUT_DIR.mkdir(exist_ok=True)
    document = recorder.chrome_trace()
    trace_path = OUTPUT_DIR / f"{label}.trace.json"
    trace_path.write_text(json.dumps(document))
    problems = validate_chrome_trace(document)
    checks = [Check("chrome trace validates", not problems, "; ".join(problems[:3]))]
    ops = [op for b in blocks for op in b.ops]
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}, ops, checks
