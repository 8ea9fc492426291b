"""Counter/gauge/histogram registry with Prometheus text exposition.

One process-wide :class:`MetricsRegistry` (reachable via
:func:`get_registry`) accumulates the stack's operational counters —
stage wall-time histograms, cache hits per tier, single-flight claim
waits and takeovers, service queue depth, solver nodes expanded,
warm-start hits, Monte-Carlo trials — and renders them two ways:

* :func:`render_prometheus` — the text exposition format
  (``text/plain; version=0.0.4``) served by ``GET /metrics`` on both the
  synthesis service and the cache daemon;
* :meth:`MetricsRegistry.snapshot` — a JSON-ready dict embedded as the
  ``metrics`` block of ``--json`` batch reports.

Metrics are always on: an increment is a dict update under one lock,
cheap enough to never need gating, and — unlike tracing — the registry
carries no per-run state, so there is nothing to install or tear down.
Everything here is stdlib-only by design.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (seconds), a decade around typical stage
#: and solver wall times.  Cumulative ``le`` rendering adds ``+Inf``.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    """Canonical hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(key: _LabelKey) -> str:
    """``{k="v",...}`` or the empty string for an unlabeled sample."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0.0 if never touched)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[_LabelKey, float]]:
        """All series, sorted by label key for stable rendering."""
        with self._lock:
            return sorted(self._series.items())


class Gauge(Counter):
    """A value that can go both ways (queue depths, entry counts)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the labeled series with ``value``."""
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Move the labeled series by ``amount`` (negative allowed)."""
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self.buckets = tuple(sorted(buckets))
        self._lock = lock
        #: label key -> (per-bucket counts, +Inf count, sum)
        self._series: Dict[_LabelKey, Tuple[List[int], List[int], List[float]]] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into every bucket it falls under."""
        key = _label_key(labels)
        with self._lock:
            if key not in self._series:
                self._series[key] = ([0] * len(self.buckets), [0], [0.0])
            counts, inf_count, total = self._series[key]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            inf_count[0] += 1
            total[0] += float(value)

    def snapshot_series(
        self,
    ) -> List[Tuple[_LabelKey, List[int], int, float]]:
        """``(labels, cumulative bucket counts, count, sum)`` per series."""
        with self._lock:
            # Bucket counts are stored cumulatively (every observation
            # increments all covering buckets), so they render as-is.
            return [
                (key, list(counts), inf_count[0], total[0])
                for key, (counts, inf_count, total) in sorted(
                    self._series.items()
                )
            ]


class MetricsRegistry:
    """Names → metric objects; the process's single source of truth.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    registers the metric, later calls return the same object, so any
    module can reach its instruments without import-order ceremony.
    Re-registering a name as a different kind is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            created = factory()
            self._metrics[name] = created
            return created

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(
            name, lambda: Counter(name, help_text, threading.Lock()), "counter"
        )

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(
            name, lambda: Gauge(name, help_text, threading.Lock()), "gauge"
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(
            name,
            lambda: Histogram(name, help_text, threading.Lock(), buckets),
            "histogram",
        )

    def metrics(self) -> List[Any]:
        """All registered metrics, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view: the ``metrics`` block of ``--json`` reports."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                series = []
                for key, _cumulative, count, total in metric.snapshot_series():
                    series.append(
                        {
                            "labels": dict(key),
                            "count": count,
                            "sum": round(total, 6),
                        }
                    )
                out[metric.name] = {"type": metric.kind, "series": series}
            else:
                out[metric.name] = {
                    "type": metric.kind,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in metric.samples()
                    ],
                }
        return out


def render_prometheus(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    ``# HELP``/``# TYPE`` headers per metric, one sample line per series,
    histograms expanded into cumulative ``_bucket{le=...}`` samples plus
    ``_sum`` and ``_count``.  Served with content type
    ``text/plain; version=0.0.4`` by the HTTP endpoints.
    """
    registry = registry if registry is not None else get_registry()
    lines: List[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key, cumulative, count, total in metric.snapshot_series():
                for bound, bucket_count in zip(metric.buckets, cumulative):
                    bucket_key = key + (("le", _format_value(bound)),)
                    lines.append(
                        f"{metric.name}_bucket{_format_labels(bucket_key)} "
                        f"{bucket_count}"
                    )
                inf_key = key + (("le", "+Inf"),)
                lines.append(
                    f"{metric.name}_bucket{_format_labels(inf_key)} {count}"
                )
                lines.append(
                    f"{metric.name}_sum{_format_labels(key)} "
                    f"{_format_value(total)}"
                )
                lines.append(f"{metric.name}_count{_format_labels(key)} {count}")
        else:
            for key, value in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(key)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


#: Prometheus content type of the exposition endpoints.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PROCESS_METRICS = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _PROCESS_METRICS


# --------------------------------------------------------------------------
# Pre-declared instruments.  Declaring them here (instead of at each call
# site) keeps names and help strings in one reviewable table; modules
# import these helpers rather than minting strings ad hoc.
# --------------------------------------------------------------------------

def stage_wall_histogram() -> Histogram:
    """Stage wall-time distribution, labeled by stage and action."""
    return _PROCESS_METRICS.histogram(
        "repro_stage_wall_seconds",
        "Wall time of pipeline stage executions, by stage and action.",
    )


def cache_hits_counter() -> Counter:
    """Cache hits split by serving tier (memory/disk/shared)."""
    return _PROCESS_METRICS.counter(
        "repro_cache_hits_total", "Result-cache hits, by serving tier."
    )


def cache_misses_counter() -> Counter:
    """Lookups that fell through every tier."""
    return _PROCESS_METRICS.counter(
        "repro_cache_misses_total", "Result-cache lookups that missed every tier."
    )


def claim_counter() -> Counter:
    """Single-flight claim lifecycle events (claims/waits/takeovers)."""
    return _PROCESS_METRICS.counter(
        "repro_claims_total",
        "Single-flight claim events, by event kind.",
    )


def solver_nodes_counter() -> Counter:
    """Branch-and-bound nodes expanded."""
    return _PROCESS_METRICS.counter(
        "repro_solver_nodes_expanded_total",
        "Branch-and-bound search nodes expanded.",
    )


def warm_start_counter() -> Counter:
    """Warm starts offered to and used by solver backends."""
    return _PROCESS_METRICS.counter(
        "repro_warm_start_hits_total",
        "Solver invocations that seeded their search from a warm start.",
    )


def mc_trials_counter() -> Counter:
    """Monte-Carlo verification trials executed."""
    return _PROCESS_METRICS.counter(
        "repro_mc_trials_total", "Monte-Carlo verification trials executed."
    )


def jobs_counter() -> Counter:
    """Jobs processed, by final state."""
    return _PROCESS_METRICS.counter(
        "repro_jobs_total", "Synthesis jobs processed, by final state."
    )


def daemon_events_counter() -> Counter:
    """Cache-daemon store and claim lifecycle events.

    Every daemon in the process adds to it; each daemon's ``GET /stats``
    payload counts its own events only (see
    :class:`repro.service.cachedaemon.DaemonStats`, which bumps both).
    """
    return _PROCESS_METRICS.counter(
        "repro_cachedaemon_events_total",
        "Cache-daemon store and claim events, by event kind.",
    )


def daemon_entries_gauge() -> Gauge:
    """Cache-daemon live object counts (entries, claims)."""
    return _PROCESS_METRICS.gauge(
        "repro_cachedaemon_entries",
        "Cache-daemon live stored entries and claim records, by kind.",
    )


def queue_depth_gauge() -> Gauge:
    """Service job queue depth, by lifecycle state."""
    return _PROCESS_METRICS.gauge(
        "repro_service_queue_depth", "Service jobs currently held, by state."
    )
