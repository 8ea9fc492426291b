"""Outside-in layer wrappers and the span-tree analysis of a traced run.

The benchmark never edits the program.  For a traced block it swaps a
thin wrapper onto each layer's public entry point (a class method or a
module-level function as bound where its caller looks it up), and each
wrapper opens a ``repro.obs`` span named after the layer.  The program's
own ``repro.obs`` spans (``stage:*``, ``job:*``, ``cache:get``,
``solver:attempt``, ``verify:mc`` ...) land in the same recorder, so one
span tree holds both.  :func:`analyze` turns that tree into per-layer
self time: a span's self time is its interval minus the part its child
spans cover, and a program span that is not itself a layer hands its self
time to the nearest layer above it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: (module, owner attribute or None for a module function, attribute, layer)
WRAPPED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.scheduling.ilp_scheduler", "IlpScheduler", "schedule", "schedule.ilp"),
    ("repro.scheduling.list_scheduler", "ListScheduler", "schedule", "schedule.list"),
    ("repro.ilp.model", "Model", "to_matrices", "ilp.lower"),
    ("repro.ilp.model", "Model", "solve", "ilp.solve"),
    ("repro.archsyn.router", "HeuristicSynthesizer", "synthesize", "archsyn.synth"),
    ("repro.archsyn.placement", "GreedyPlacer", "place", "archsyn.place"),
    ("repro.physical.pipeline", None, "layout_from_architecture", "physical.scale"),
    ("repro.physical.pipeline", None, "insert_devices", "physical.insert"),
    ("repro.physical.pipeline", None, "compress_layout", "physical.compress"),
    ("repro.simulation.montecarlo", "MonteCarloEngine", "run", "verify.replay"),
    ("repro.simulation.montecarlo", "MonteCarloEngine", "plan", "verify.plan"),
    ("repro.simulation.montecarlo", None, "derive_seed_block", "verify.draws"),
    ("repro.simulation.montecarlo", None, "uniform_block", "verify.draws"),
    ("repro.batch.cache", "ResultCache", "get", "cache.get"),
    ("repro.batch.cache", "ResultCache", "put", "cache.put"),
    ("repro.batch.cache_backends.shared", None, "encode_envelope", "cache.encode"),
    ("repro.batch.cache_backends.shared", None, "decode_envelope", "cache.decode"),
    ("repro.batch.cache_backends.shared", "SharedCacheTier", "claim", "cache.claim"),
    ("repro.synthesis.pipeline", "SynthesisPipeline", "plan", "cache.key"),
    ("repro.service.client", "ServiceClient", "submit", "http.submit"),
    ("repro.service.client", "ServiceClient", "status", "http.status"),
    ("repro.service.client", "ServiceClient", "result", "http.result"),
)

#: Program spans that are layers of their own rather than part of a caller.
PROGRAM_SPAN_LAYERS = {"cache:claim-wait": "cache.claim_wait"}

#: Span names the analysis attributes time to; the two ``service.*``
#: layers are synthesized from the status payload's timestamps.
LAYERS = tuple(sorted({row[3] for row in WRAPPED} | set(PROGRAM_SPAN_LAYERS.values())
                      | {"service.queue", "service.run"}))


def _annotate(layer: str, span: Any, args: Sequence[Any], out: Any) -> None:
    """Attach the attributes a layer's counters are computed from."""
    if layer == "ilp.solve":
        model = args[0]
        span.set(vars=model.num_variables, rows=model.num_constraints,
                 status=getattr(getattr(out, "status", None), "value", None))
    elif layer == "cache.get":
        span.set(hit=out is not None)
    elif layer == "cache.encode":
        span.set(bytes=len(out))
    elif layer == "cache.decode":
        span.set(bytes=len(args[0]))
    elif layer == "http.submit":
        span.set(job_id=out)
    elif layer in ("http.status", "http.result"):
        span.set(job_id=args[1])


def _wrapper(original: Callable, layer: str, span: Callable) -> Callable:
    @functools.wraps(original)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        with span(layer, category="layer") as opened:
            out = original(*args, **kwargs)
            _annotate(layer, opened, args, out)
            return out

    return wrapped


class LayerWrappers:
    """Installs and removes the layer wrappers (a context manager)."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerWrappers":
        from repro.obs.trace import span

        for module_name, owner_name, attribute, layer in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attribute] if owner_name else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrapper(original, layer, span))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()


# ------------------------------------------------------------------ analysis


@dataclass
class Node:
    """One span of the analysed tree (program, wrapper or synthesized)."""

    name: str
    span_id: str
    parent_id: Optional[str]
    start: float
    end: float
    attributes: Dict[str, Any] = field(default_factory=dict)


def nodes_from_spans(spans: Iterable[Any]) -> List[Node]:
    """Closed ``repro.obs`` spans as analysis nodes."""
    return [
        Node(s.name, s.span_id, s.parent_id, s.start_s, s.end_s, dict(s.attributes))
        for s in spans
        if s.end_s is not None
    ]


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, merged copy of ``intervals``."""
    merged: List[List[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def length(intervals: Iterable[Interval]) -> float:
    return sum(hi - lo for lo, hi in intervals)


def _self_intervals(node: Node, children: List[Node]) -> List[Interval]:
    """``node``'s interval minus the union of its children, clipped."""
    covered = union(
        (max(c.start, node.start), min(c.end, node.end))
        for c in children
        if c.end > node.start and c.start < node.end
    )
    out: List[Interval] = []
    cursor = node.start
    for lo, hi in covered:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < node.end:
        out.append((cursor, node.end))
    return out


@dataclass
class Analysis:
    """Per-layer busy time and call counts under a set of root spans."""

    #: (layer, root kind) -> seconds of self time attributed to the layer.
    busy: Dict[Tuple[str, str], float]
    #: layer -> seconds spent inside the layer's spans, nested calls included.
    inclusive: Dict[str, float]
    #: layer -> the layer's spans (for counters read off their attributes).
    spans: Dict[str, List[Node]]
    root_time: float
    covered_time: float
    intended_time: float

    def busy_s(self, layer: str, kind: Optional[str] = None) -> float:
        return sum(v for (name, k), v in self.busy.items()
                   if name == layer and (kind is None or k == kind))


def analyze(nodes: List[Node], roots: List[Node], intended: Callable[[str], bool]) -> Analysis:
    """Attribute each root's time to layers.

    A node's layer is its own name when that is a layer, the mapped name
    for a program span in :data:`PROGRAM_SPAN_LAYERS`, and otherwise the
    layer of its parent (so ``solver:attempt`` time counts as
    ``ilp.solve``).  ``covered_time`` is, per root, the union of all
    layer-labelled self intervals; ``intended_time`` the same restricted
    to layers for which ``intended`` is true.  A root's ``kind`` attribute
    splits the busy time (jitter-only vs fault-injected requests).
    """
    children: Dict[Optional[str], List[Node]] = defaultdict(list)
    for node in nodes:
        children[node.parent_id].append(node)
    busy: Dict[Tuple[str, str], float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    spans: Dict[str, List[Node]] = defaultdict(list)
    root_time = covered_time = intended_time = 0.0
    for root in roots:
        kind = str(root.attributes.get("kind", ""))
        labelled: List[Interval] = []
        wanted: List[Interval] = []
        stack: List[Tuple[Node, Optional[str]]] = [(root, None)]
        while stack:
            node, inherited = stack.pop()
            own = node.name if node.name in LAYERS else PROGRAM_SPAN_LAYERS.get(node.name)
            layer = own or inherited
            kids = children.get(node.span_id, [])
            if own is not None:
                spans[own].append(node)
                if inherited != own:  # a nested call of the same layer is inside it
                    inclusive[own] += node.end - node.start
            if layer is not None:
                parts = _self_intervals(node, kids)
                busy[(layer, kind)] += length(parts)
                labelled.extend(parts)
                if intended(layer):
                    wanted.extend(parts)
            stack.extend((kid, layer) for kid in kids)
        root_time += root.end - root.start
        covered_time += length(union(labelled))
        intended_time += length(union(wanted))
    return Analysis(dict(busy), dict(inclusive), dict(spans), root_time,
                    covered_time, intended_time)
