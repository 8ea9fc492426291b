"""Content-addressed artifact cache: in-memory LRU + pluggable durable tiers.

Since the staged-pipeline refactor the cache stores two kinds of entries
under one namespace of SHA-256 keys:

* **stage artifacts** (:mod:`repro.synthesis.pipeline`) under their stage
  keys — ``hash(upstream artifact hash + the config slice the stage
  consumes)`` — so a parameter sweep that only touches routing or
  physical-design knobs replays the untouched upstream stages;
* **assembled results** (:class:`~repro.synthesis.flow.SynthesisResult`)
  under the run-level key of :func:`cache_key` — kept in the memory tier
  only, since they are thin views over stage artifacts that already
  persist individually.

Every synthesis engine is deterministic, so equal keys mean equal content.
Two graphs built in different node orders hash equal; changing any duration,
edge, or config knob changes the key.

The cache is a tier chain:

* an in-memory LRU dictionary bounded by ``max_entries`` — the hot tier that
  serves repeated experiment runs within one process, always present;
* zero or more durable :class:`~repro.batch.cache_backends.CacheTier`
  instances built by the named backend from the
  :mod:`repro.batch.cache_backends` registry — ``memory`` (none), ``disk``
  (pickled envelope files, atomic writes), or ``shared`` (an optional disk
  tier in front of a networked key-value daemon, pooling artifacts across
  ``repro serve`` replicas).  Lookups fall through the chain front to back;
  a tier hit is promoted into memory; durable writes go through to every
  tier.  Durable entries carry a ``(KEY_VERSION, payload)`` envelope, so a
  stale or corrupt tier degrades to misses — it never crashes a run or,
  worse, replays a payload with outdated semantics.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro import keys
from repro.batch.cache_backends import (
    CacheBackendOptions,
    CacheTier,
    get_cache_backend,
)
from repro.graph.sequencing_graph import SequencingGraph
from repro.keys import stable_digest
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.synthesis.config import RUNTIME_ADVICE_FIELDS, FlowConfig
from repro.synthesis.pipeline import graph_fingerprint

# The version constant itself lives in repro.keys so run-level and
# stage-level keys share one source of truth; it is always read through the
# module attribute (keys.KEY_VERSION), never copied, so a bump invalidates
# every key kind at once.


def cache_key(
    graph: SequencingGraph,
    config: FlowConfig,
    graph_hash: Optional[str] = None,
) -> str:
    """Stable hex digest identifying a ``(graph, config)`` synthesis job.

    The run-level key over the complete pair — used for failure memoization
    and intra-batch job aliasing.  (Stage-granular reuse uses the per-stage
    keys of :meth:`repro.synthesis.pipeline.SynthesisPipeline.plan`, which
    hash only the config slice each stage consumes.)  The graph enters via
    the same canonical :func:`~repro.synthesis.pipeline.graph_fingerprint`
    the stage keys build on — insertion order does not matter, and the
    graph *name* is deliberately excluded: renaming an assay does not
    change what gets synthesized.  Callers that already computed the
    fingerprint pass it as ``graph_hash`` to skip re-canonicalizing.
    Runtime-advice fields (``verify_workers``) are excluded too — they
    change how fast the result arrives, never what it is.
    """
    config_payload = config.to_dict()
    for advice_field in RUNTIME_ADVICE_FIELDS:
        config_payload.pop(advice_field, None)
    payload = {
        "version": keys.KEY_VERSION,
        "graph": graph_hash if graph_hash is not None else graph_fingerprint(graph),
        "config": config_payload,
    }
    return stable_digest(payload)


@dataclass
class CacheStats:
    """Hit/miss and single-flight counters, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    shared_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Single-flight claims this process acquired (local or cross-process).
    claims: int = 0
    #: Times a lookup blocked on a claim held by another thread or process.
    claim_waits: int = 0
    #: Claims inherited from a presumed-dead claimant (local thread timeout
    #: or a remote lease that expired).
    takeovers: int = 0

    @property
    def hits(self) -> int:
        """Total hits across every tier."""
        return self.memory_hits + self.disk_hits + self.shared_hits

    @property
    def lookups(self) -> int:
        """Total lookups (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a tier (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Counters plus derived totals, JSON-ready for reports/endpoints."""
        payload: Dict[str, Any] = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        payload["hits"] = self.hits
        payload["lookups"] = self.lookups
        payload["hit_rate"] = self.hit_rate
        return payload

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Field-wise ``self - before``: the activity between two snapshots.

        Iterates the dataclass fields so a future counter cannot be
        silently dropped from per-batch deltas.
        """
        return CacheStats(
            **{
                field.name: getattr(self, field.name) - getattr(before, field.name)
                for field in dataclasses.fields(self)
            }
        )


class ResultCache:
    """Tiered (memory LRU + pluggable durable tiers) content-addressed cache.

    Parameters
    ----------
    max_entries:
        Bound on the in-memory tier; least-recently-used entries are evicted
        first.  ``None`` means unbounded.
    cache_dir:
        Directory for the on-disk tier; consumed by the ``disk`` and
        ``shared`` backends.
    backend:
        Name from the :mod:`repro.batch.cache_backends` registry.  ``None``
        keeps the historical behavior: ``disk`` when a ``cache_dir`` is
        given, plain ``memory`` otherwise.
    cache_addr:
        ``host:port`` of a ``repro cache-daemon``; required by the
        ``shared`` backend.
    request_timeout_s:
        Per-request timeout of the networked tier.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 256,
        cache_dir: Optional[Union[str, Path]] = None,
        backend: Optional[str] = None,
        cache_addr: Optional[str] = None,
        request_timeout_s: float = 10.0,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.backend_name = backend or (
            "disk" if cache_dir is not None else "memory"
        )
        options = CacheBackendOptions(
            cache_dir=cache_dir,
            cache_addr=cache_addr,
            request_timeout_s=request_timeout_s,
        )
        #: Ordered durable tiers behind the memory LRU (may be empty).
        self.tiers: List[CacheTier] = get_cache_backend(
            self.backend_name
        ).build_tiers(options)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        # Keys inserted with put(..., disk=False): thin views over artifacts
        # that persist individually, deliberately excluded from the durable
        # tiers — and therefore also from flush_to_disk().
        self._memory_only: set = set()
        # Failed jobs are memoized in memory only (never durably): synthesis
        # is deterministic, so re-running an identical failed job in the same
        # process just burns a solver run to reproduce the same error.  The
        # exception object itself is kept so callers can re-raise it with its
        # original type and traceback.
        self._failures: Dict[str, BaseException] = {}

    # ------------------------------------------------------------------- api
    @property
    def claim_tier(self) -> Optional[CacheTier]:
        """The first tier that arbitrates cross-process claims, or ``None``.

        :class:`~repro.service.singleflight.SingleFlightCache` consults this
        to decide whether a local miss must also negotiate a claim with the
        shared daemon before computing.
        """
        for tier in self.tiers:
            if tier.supports_claims:
                return tier
        return None

    def get(
        self, key: str, claim: Optional[Callable[[str], Optional[Any]]] = None
    ) -> Optional[Any]:
        """Look ``key`` up through the tier chain; ``None`` on a miss.

        ``claim`` stands in for the :attr:`claim_tier`'s ``get``: the
        caller's claim request, whose answer carries the value when the
        daemon holds the key, so a lookup that reaches the daemon costs one
        round trip (:class:`~repro.service.singleflight.SingleFlightCache`
        passes one).  It is called last, once memory and every other tier
        missed, and counts like the read it replaces.
        """
        if key in self._memory:
            return self._memory_hit(key)
        claim_tier = self.claim_tier if claim is not None else None
        for tier in self.tiers:
            if tier is not claim_tier:
                value = self._read_tier(tier, tier.get, key)
                if value is not None:
                    return value
        if claim_tier is not None:
            value = self._read_tier(claim_tier, claim, key)
            if value is not None:
                return value
        self._count_miss()
        return None

    def get_memory(self, key: str) -> Optional[Any]:
        """Look ``key`` up in the memory tier only; ``None`` on a miss.

        For entries stored with ``put(..., disk=False)`` (run-level result
        views), which no durable tier ever holds: asking one would only
        cost a disk probe or a daemon round trip.  Counts like :meth:`get`.
        """
        if key in self._memory:
            return self._memory_hit(key)
        self._count_miss()
        return None

    def put(self, key: str, value: Any, disk: bool = True) -> None:
        """Insert into the memory tier and (if any) every durable tier.

        ``disk=False`` keeps an entry memory-only even when durable tiers
        are configured — used for assembled :class:`SynthesisResult` views,
        whose stage artifacts already persist individually (writing the view
        too would double every result's durable footprint).
        """
        self.stats.stores += 1
        self._store_memory(key, value)
        if disk:
            self._memory_only.discard(key)
            for tier in self.tiers:
                tier.put(key, value)
        else:
            self._memory_only.add(key)

    def flush_to_disk(self) -> int:
        """Re-publish durable memory entries a tier does not yet hold.

        The safety net behind the synthesis service's graceful shutdown:
        normal ``put`` calls write through immediately, but a write may
        have soft-failed (full disk, unreachable daemon).  Each tier tracks
        the keys it successfully wrote or observed, and the flush rewrites
        only the *dirty* remainder — an entry the live tier already
        persisted is not written a second time.  Entries stored with
        ``disk=False`` (assembled result views) are skipped; their stage
        artifacts persist individually.  Returns the number of entries
        written to at least one tier; a cache without durable tiers flushes
        nothing.
        """
        if not self.tiers:
            return 0
        written = 0
        for key, value in list(self._memory.items()):
            if key in self._memory_only:
                continue
            wrote = False
            for tier in self.tiers:
                if tier.is_clean(key):
                    continue
                if tier.put(key, value):
                    wrote = True
            if wrote:
                written += 1
        return written

    def put_failure(self, key: str, error: BaseException) -> None:
        """Memoize a failed job's exception (memory tier only)."""
        self._failures[key] = error

    def get_failure(self, key: str) -> Optional[BaseException]:
        """The memoized exception for ``key``, or ``None``."""
        return self._failures.get(key)

    def contains(self, key: str) -> bool:
        """Membership test that does not touch the stats or LRU order."""
        if key in self._memory:
            return True
        return any(tier.contains(key) for tier in self.tiers)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and every durable tier with ``disk=True``)."""
        self._memory.clear()
        self._memory_only.clear()
        self._failures.clear()
        if disk:
            for tier in self.tiers:
                tier.clear()

    def close(self) -> None:
        """Close every durable tier (sockets, handles); memory is untouched."""
        for tier in self.tiers:
            tier.close()

    def tier_counters(self) -> List[Dict[str, Any]]:
        """Per-tier write counters, JSON-ready for the stats endpoints."""
        return [
            {"kind": tier.kind, "writes": tier.writes} for tier in self.tiers
        ]

    def __len__(self) -> int:
        return len(self._memory)

    # -------------------------------------------------------------- internals
    def _read_tier(
        self, tier: CacheTier, read: Callable[[str], Optional[Any]], key: str
    ) -> Optional[Any]:
        """``read(key)`` as ``tier``'s lookup: traced, and on a hit counted
        and promoted into memory."""
        with obs_span("cache:get", category="cache", tier=tier.kind) as tier_span:
            value = read(key)
            tier_span.set(hit=value is not None, key=key[:16])
        if value is not None:
            if tier.kind == "shared":
                self.stats.shared_hits += 1
            else:
                self.stats.disk_hits += 1
            obs_metrics.cache_hits_counter().inc(tier=tier.kind)
            self._store_memory(key, value)
        return value

    def _memory_hit(self, key: str) -> Any:
        self._memory.move_to_end(key)
        self.stats.memory_hits += 1
        obs_metrics.cache_hits_counter().inc(tier="memory")
        return self._memory[key]

    def _count_miss(self) -> None:
        self.stats.misses += 1
        obs_metrics.cache_misses_counter().inc()

    def _store_memory(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        if self.max_entries is not None:
            while len(self._memory) > self.max_entries:
                evicted, _ = self._memory.popitem(last=False)
                self._memory_only.discard(evicted)
                self.stats.evictions += 1
