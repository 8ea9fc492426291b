"""Hierarchical tracing with cross-process and cross-HTTP propagation.

One :class:`TraceRecorder` records one run (a CLI invocation, or one
service job): every :func:`span` opened while the recorder is installed
lands in it as a closed interval on the monotonic clock, with a parent
pointer that reconstructs the job → stage → solver attempt → kernel
hierarchy.  The recorder is installed in a :class:`contextvars.ContextVar`
— it follows ``asyncio`` tasks and ``asyncio.to_thread`` dispatches
automatically, and crosses hard boundaries explicitly:

* **Process boundaries** (ProcessPool stage workers, ``verify_workers``
  shards): the parent serializes :func:`current_context`, the worker
  builds a child :class:`TraceRecorder` seeded with it, and ships its
  finished spans back for :meth:`TraceRecorder.absorb`.  Linux's
  ``CLOCK_MONOTONIC`` is machine-wide, so child timestamps land on the
  parent's timeline without adjustment.
* **HTTP hops** (service submissions, cache-daemon claims): the caller
  sends :data:`TRACE_HEADER` with the serialized context; the far side
  either records into a child recorder (service jobs) or stores the
  claimant's context so a later waiter can link its claim-wait span to
  the trace that is doing the work (cache daemon).

Everything is zero-cost-when-disabled: with no recorder installed,
:func:`span` returns a shared no-op without allocating.  Exports are
Chrome trace-event JSON (``{"traceEvents": [...]}``), loadable in
Perfetto and ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

#: HTTP header carrying a serialized :class:`SpanContext` across hops.
TRACE_HEADER = "x-repro-trace"


_ID_RNG: Optional[random.Random] = None
_ID_RNG_PID: Optional[int] = None


def _new_id() -> str:
    """A 16-hex-digit random id (``PYTHONHASHSEED``-independent).

    Ids come from a per-process :class:`random.Random` seeded from
    ``os.urandom`` — an order of magnitude cheaper per id than ``uuid4``
    (which takes the urandom syscall on *every* call), and span creation
    is the flight recorder's hottest allocation.  The generator is keyed
    to the pid so a forked ProcessPool worker reseeds instead of
    replaying its parent's id stream.
    """
    global _ID_RNG, _ID_RNG_PID
    pid = os.getpid()
    if _ID_RNG is None or _ID_RNG_PID != pid:
        _ID_RNG = random.Random(int.from_bytes(os.urandom(16), "big"))
        _ID_RNG_PID = pid
    return f"{_ID_RNG.getrandbits(64):016x}"


@dataclass(frozen=True)
class SpanContext:
    """The portable coordinates of a span: ``(trace_id, span_id)``.

    This is what crosses process and HTTP boundaries — enough for the far
    side to parent its spans under ours and for a waiter to name the
    trace that holds a claim.
    """

    trace_id: str
    span_id: str

    def serialize(self) -> str:
        """Wire form: ``"<trace_id>:<span_id>"`` (header-safe ASCII)."""
        return f"{self.trace_id}:{self.span_id}"

    @classmethod
    def deserialize(cls, raw: Optional[str]) -> Optional["SpanContext"]:
        """Parse the wire form; ``None`` on anything malformed.

        Propagation must never take a run down: a corrupt header simply
        yields an unlinked trace.
        """
        if not raw or not isinstance(raw, str):
            return None
        parts = raw.strip().split(":")
        if len(parts) != 2 or not all(p and p.isalnum() for p in parts):
            return None
        return cls(trace_id=parts[0], span_id=parts[1])


@dataclass
class Span:
    """One closed (or still-open) interval on the run's timeline."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float
    end_s: Optional[float] = None
    category: str = "repro"
    attributes: Dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    @property
    def duration_s(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def context(self) -> SpanContext:
        """This span's portable coordinates, for propagation."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, **attributes: Any) -> None:
        """Attach attributes (phase timings, counters) to the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form, for crossing process boundaries."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "category": self.category,
            "attributes": dict(self.attributes),
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Rebuild a span shipped back from a worker process."""
        return cls(
            name=payload["name"],
            trace_id=payload["trace_id"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            start_s=payload["start_s"],
            end_s=payload.get("end_s"),
            category=payload.get("category", "repro"),
            attributes=dict(payload.get("attributes", {})),
            pid=payload.get("pid", 0),
            tid=payload.get("tid", 0),
        )


class _NoopSpan:
    """The shared do-nothing span yielded while tracing is disabled."""

    __slots__ = ()

    #: Mirrors :attr:`Span.context`; ``None`` signals "nothing to link".
    context = None

    def set(self, **attributes: Any) -> None:
        """Discard attributes; keeps call sites branch-free."""


_NOOP_SPAN = _NoopSpan()


class TraceRecorder:
    """Collects one run's spans; thread-safe, exportable as Chrome JSON.

    ``parent`` seeds the recorder with a foreign :class:`SpanContext`:
    the recorder adopts that trace id and parents its root spans under
    the foreign span, which is how worker processes and service jobs
    join the trace of whoever dispatched them.
    """

    def __init__(self, parent: Optional[SpanContext] = None) -> None:
        self.trace_id = parent.trace_id if parent else _new_id()
        self._root_parent = parent.span_id if parent else None
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        #: Wall-clock anchor paired with a monotonic reading, exported as
        #: metadata so a trace can be aligned to real time after the fact.
        self.anchor_wall_s = time.time()
        self.anchor_mono_s = time.perf_counter()

    # ------------------------------------------------------------- recording
    def begin(
        self,
        name: str,
        parent: Optional[Span],
        category: str,
        attributes: Dict[str, Any],
    ) -> Span:
        """Open a span under ``parent`` (or the recorder's root parent).

        ``attributes`` is adopted, not copied — :func:`span` builds a
        fresh dict from its keyword arguments, and this is the hottest
        allocation site the recorder has.
        """
        new = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_id=parent.span_id if parent is not None else self._root_parent,
            start_s=time.perf_counter(),
            category=category,
            attributes=attributes,
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        return new

    def finish(self, opened: Span) -> None:
        """Close ``opened`` and file it with the recorder."""
        opened.end_s = time.perf_counter()
        with self._lock:
            self._spans.append(opened)

    def absorb(self, payloads: List[Dict[str, Any]]) -> None:
        """File spans recorded in a worker process (already finished)."""
        rebuilt = [Span.from_dict(p) for p in payloads]
        with self._lock:
            self._spans.extend(rebuilt)

    # --------------------------------------------------------------- queries
    def spans(self) -> List[Span]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def serialized_spans(self) -> List[Dict[str, Any]]:
        """Finished spans as dicts, for shipping across a process hop."""
        return [s.to_dict() for s in self.spans()]

    def stage_summaries(self) -> List[Dict[str, Any]]:
        """Per-stage span digests (category ``"stage"``), start order.

        The compact form embedded in job payloads: one row per stage span
        with its duration and attributes, no ids.
        """
        stages = sorted(
            (s for s in self.spans() if s.category == "stage"),
            key=lambda s: s.start_s,
        )
        return [
            {
                "name": s.name,
                "duration_s": round(s.duration_s, 6),
                **{k: v for k, v in sorted(s.attributes.items())},
            }
            for s in stages
        ]

    # --------------------------------------------------------------- exports
    def chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome trace-event document (Perfetto-loadable).

        Spans become complete (``"ph": "X"``) events with microsecond
        timestamps on the shared monotonic timeline; trace/span ids ride
        in ``args`` so cross-trace links stay inspectable.
        """
        events: List[Dict[str, Any]] = []
        for s in sorted(self.spans(), key=lambda s: s.start_s):
            end_s = s.end_s if s.end_s is not None else s.start_s
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": round(s.start_s * 1e6, 3),
                    "dur": round((end_s - s.start_s) * 1e6, 3),
                    "pid": s.pid,
                    "tid": s.tid,
                    "args": {
                        **s.attributes,
                        "trace_id": s.trace_id,
                        "span_id": s.span_id,
                        "parent_id": s.parent_id or "",
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "trace_id": self.trace_id,
                "anchor_wall_s": self.anchor_wall_s,
                "anchor_mono_s": self.anchor_mono_s,
            },
        }

    def write(self, path: Union[str, Path]) -> None:
        """Write the Chrome trace-event JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.chrome_trace(), indent=2, sort_keys=True)
        )


_RECORDER: ContextVar[Optional[TraceRecorder]] = ContextVar(
    "repro_trace_recorder", default=None
)
_CURRENT: ContextVar[Optional[Span]] = ContextVar(
    "repro_trace_current_span", default=None
)


def install_recorder(new: Optional[TraceRecorder]) -> object:
    """Install ``new`` as the ambient recorder; returns a reset token.

    Installation is per-:mod:`contextvars` context, so concurrent service
    jobs each see their own recorder.  Pass the returned token to
    ``uninstall_recorder`` to restore the previous state.
    """
    return _RECORDER.set(new)


def uninstall_recorder(token: object) -> None:
    """Undo an :func:`install_recorder` using its token."""
    _RECORDER.reset(token)  # type: ignore[arg-type]


def recorder() -> Optional[TraceRecorder]:
    """The ambient recorder, or ``None`` while tracing is disabled."""
    return _RECORDER.get()


def tracing_enabled() -> bool:
    """True when a recorder is installed in the current context."""
    return _RECORDER.get() is not None


def current_context() -> Optional[SpanContext]:
    """The active span's portable coordinates, for propagation.

    Falls back to a recorder-level context (trace id with no span) when
    tracing is on but no span is open, and ``None`` when disabled.
    """
    active = _CURRENT.get()
    if active is not None:
        return active.context
    rec = _RECORDER.get()
    if rec is None:
        return None
    return SpanContext(trace_id=rec.trace_id, span_id=rec._root_parent or "root")


@contextmanager
def span(
    name: str, category: str = "repro", **attributes: Any
) -> Iterator[Any]:
    """Open a child span of the current one; no-op while disabled.

    The disabled path allocates nothing and touches two context
    variables — cheap enough to leave call sites unguarded everywhere,
    which is the zero-cost-when-disabled contract.
    """
    rec = _RECORDER.get()
    if rec is None:
        yield _NOOP_SPAN
        return
    opened = rec.begin(name, _CURRENT.get(), category, attributes)
    token = _CURRENT.set(opened)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        rec.finish(opened)


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Structural problems of an exported trace document (empty = ok).

    The checker the tests run over ``--trace-out`` output:
    every event must be a closed complete event with a non-negative
    duration, and every non-root parent pointer must resolve to another
    event in the same document.
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    ids = set()
    for event in events:
        args = event.get("args", {})
        ids.add(args.get("span_id"))
    for event in events:
        name = event.get("name", "<unnamed>")
        if event.get("ph") != "X":
            problems.append(f"{name}: not a complete event (ph != 'X')")
        if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
            problems.append(f"{name}: missing or negative duration")
        parent = event.get("args", {}).get("parent_id")
        if parent and parent not in ids:
            problems.append(f"{name}: dangling parent span {parent}")
    return problems
