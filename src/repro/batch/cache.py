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
  instances picked by :func:`~repro.batch.cache_backends.cache_tiers` —
  ``memory`` (none), ``disk`` (pickled envelope files, atomic writes), or
  ``shared`` (an optional disk tier in front of a networked key-value
  daemon, pooling artifacts across ``repro serve`` replicas).  Lookups fall
  through the chain front to back; a tier hit is promoted into memory;
  durable writes go through to every tier.  Durable entries carry a
  ``(KEY_VERSION, payload)`` envelope, so a stale or corrupt tier degrades
  to misses — it never crashes a run or, worse, replays a payload with
  outdated semantics.

The cache is also single-flight.  Several engines may run against one cache
at once (the synthesis service runs each job through its own
:meth:`BatchSynthesisEngine.run` call), and a cache that only stores
finished artifacts cannot stop two of them from both missing a stage key
and both computing it.  So every lookup that misses **claims** the key:

* a ``get`` miss returns ``None`` and leaves the caller holding the claim —
  it is expected to compute the artifact and ``put`` it, or ``abandon`` the
  claim on failure;
* a ``get`` of a key another caller holds a claim on **blocks** until the
  claim is released, then returns the freshly stored artifact — so a second
  sweep replays the first sweep's schedule instead of re-solving it;
* claims expire after ``claim_timeout_s``: if the claimant vanishes without
  releasing (a killed thread, a bug), a waiter takes the claim over and
  computes the artifact itself — slower, never deadlocked.

Under the ``shared`` backend the same protocol extends **across
processes**, and the claim *is* the daemon lookup: a lookup that misses
memory and any disk tier takes the local claim and sends one claim request
in place of the daemon read.  When the daemon holds the key the answer is
the value itself (``present``), so a hit costs one round trip and a miss no
more.  ``granted`` means this process computes; ``claimed`` means another
*live* replica is mid-solve — one thread per process re-asks (everyone else
queues on the local claim event) until an answer carries the value or the
remote lease expires and the claim is taken over.  Each re-ask is *held* by
the daemon until the claim ends, so the waiter receives the publish at
once; re-asks the daemon answers at once are paced to one per
:data:`CLAIM_POLL_INTERVAL_S`.  An envelope this process cannot read
(another key version) is a miss, and after three of them the process
computes.  An unreachable daemon degrades to process-local single-flight;
it never blocks or crashes a solve.

Run-level keys (:meth:`ResultCache.get_memory` lookups and
``put(..., disk=False)`` stores) are never claimed and never leave the
process.  One caller takes claims: the batch engine's tier runner
(:class:`~repro.batch.engine.BatchSynthesisEngine`, which every synthesis
with a cache goes through).  It releases on every path, so under normal
operation the timeout never fires.

All cache state is guarded by one lock, which makes a cache safe to share
between threads.  Two daemon round trips run inside it: a lookup's first
claim request (answered at once, never held), and the write-through ``PUT``
of :meth:`ResultCache.put` (as do the tier calls of ``flush_to_disk`` and
``close``).  Local claim waits, the re-asks of a remote claim wait, which
the daemon holds until the foreign claim ends, and ``release`` requests run
outside it, so a wait on another solve never stalls unrelated lookups.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import keys
from repro.batch.cache_backends import CacheTier, ClaimOutcome, cache_tiers
from repro.graph.sequencing_graph import SequencingGraph
from repro.keys import stable_digest
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.trace import current_context
from repro.obs.trace import span as obs_span
from repro.synthesis.config import RUNTIME_ADVICE_FIELDS, FlowConfig
from repro.synthesis.pipeline import graph_fingerprint

_LOG = get_logger("cache")

#: The shortest spacing between two re-asks of the (single) waiting thread
#: about a key another replica has claimed, for re-asks the daemon answers
#: without holding them.
CLAIM_POLL_INTERVAL_S = 0.05

#: The outcome of a lookup that took the local claim with no claim-arbitrating
#: tier behind it: this caller computes.
_LOCAL_GRANT = ClaimOutcome(state="granted")

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
    """Tiered, single-flight, content-addressed cache (thread-safe).

    Parameters
    ----------
    max_entries:
        Bound on the in-memory tier; least-recently-used entries are evicted
        first.  ``None`` means unbounded.
    cache_dir:
        Directory of the on-disk tier, used by the ``disk`` and ``shared``
        backends.
    backend:
        ``memory``, ``disk`` or ``shared``; ``None`` picks one from the
        locations given (:func:`~repro.batch.cache_backends.cache_tiers`).
    cache_addr:
        ``host:port`` of a ``repro cache-daemon``; required by the
        ``shared`` backend.
    claim_timeout_s:
        How long a waiter blocks on another caller's claim before assuming
        the claimant died and taking the claim over; doubles as the lease
        requested on cross-process claims.  Generous by default — a
        legitimate claimant is mid-solve — and short in tests.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 256,
        cache_dir: Optional[Union[str, Path]] = None,
        backend: Optional[str] = None,
        cache_addr: Optional[str] = None,
        claim_timeout_s: float = 300.0,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        if claim_timeout_s <= 0:
            raise ValueError("claim_timeout_s must be positive")
        self.max_entries = max_entries
        self.claim_timeout_s = claim_timeout_s
        #: The resolved backend name and its ordered durable tiers behind
        #: the memory LRU (may be empty).
        self.backend_name, self.tiers = cache_tiers(backend, cache_dir, cache_addr)
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
        self._lock = threading.Lock()
        # Local claims: key -> the event its claimant sets on release.
        self._inflight: Dict[str, threading.Event] = {}
        # The tier that arbitrates cross-process claims (the daemon), or None.
        self._claims = next((t for t in self.tiers if t.kind == "shared"), None)

    # ------------------------------------------------------------------- api
    def get(self, key: str) -> Optional[Any]:
        """Look ``key`` up; a miss claims it, a claim held elsewhere blocks.

        Returns the cached value, or ``None`` when the *caller* now holds
        the claim (local, and — under a shared backend — cross-process) and
        is expected to compute and ``put`` (or ``abandon``).
        """
        trace = current_context()
        waited = 0.0
        watched: Optional[threading.Event] = None
        while True:
            # A claim waited on for the whole timeout is presumed dead.
            stale = watched if waited >= self.claim_timeout_s else None
            with self._lock:
                value, outcome = self._lookup(key, stale, trace)
                if value is not None:
                    return value
                if outcome is not None:
                    break  # holds the local claim; settle the remote one below
                event = self._inflight[key]
                if event is not watched:
                    if watched is None:
                        self._bump("claim_waits")
                    # A different claimant than the one we were timing: give
                    # the new one a full patience window.  Without this
                    # reset, every waiter's accumulated wait would instantly
                    # "expire" the replacement claim after one takeover and
                    # the whole herd would solve the key concurrently.
                    watched = event
                    waited = 0.0
            start = time.monotonic()
            with obs_span("cache:claim-wait", category="cache", key=key[:16]):
                event.wait(timeout=self.claim_timeout_s - waited)
            waited += time.monotonic() - start
        return self._negotiate_shared_claim(key, outcome)

    def get_memory(self, key: str) -> Optional[Any]:
        """Look ``key`` up in the memory tier only: no claiming, no waiting.

        For run-level keys, stored with ``put(..., disk=False)``, which no
        durable tier ever holds: asking one would only cost a disk probe or
        a daemon round trip.  They stay held for a job's whole run, so
        blocking on (or claiming) them from concurrent engines could chain
        into hold-and-wait cycles; a miss is simply a miss, and
        deduplication happens at the stage keys.  Counts like :meth:`get`.
        """
        with self._lock:
            if key in self._memory:
                return self._memory_hit(key)
            self._count_miss()
            return None

    def put(self, key: str, value: Any, disk: bool = True) -> None:
        """Store ``value`` and release the claim on ``key`` (waking waiters).

        Inserts into the memory tier and (if any) every durable tier.
        ``disk=False`` keeps an entry memory-only even when durable tiers
        are configured — used for assembled :class:`SynthesisResult` views,
        whose stage artifacts already persist individually (writing the view
        too would double every result's durable footprint).

        Under a shared backend the write-through publish is itself the
        remote release (the daemon drops the claim when the value arrives);
        when that publish soft-failed, the claim is released explicitly so
        other replicas stop waiting and compute.  A memory-only store was
        never claimed remotely and sends nothing.
        """
        with self._lock:
            self.stats.stores += 1
            self._store_memory(key, value)
            if disk:
                self._memory_only.discard(key)
                for tier in self.tiers:
                    tier.put(key, value)
            else:
                self._memory_only.add(key)
            self._release(key)
        if self._claims is not None and disk and not self._claims.is_clean(key):
            self._claims.release(key)

    def abandon(self, key: str) -> None:
        """Release the claim on ``key`` without storing anything.

        Called by the batch engine when a claimed stage ends in failure;
        waiters wake — local and, under a shared backend, in every replica
        — find the key still missing, and claim it themselves.  Abandoning
        an unclaimed or already-released key is a no-op, so callers need
        not track claim ownership precisely.
        """
        with self._lock:
            self._release(key)
        if self._claims is not None:
            self._claims.release(key)

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
        written = 0
        with self._lock:
            if not self.tiers:
                return 0
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
        """Memoize a failed job's exception (memory tier only; no claims)."""
        with self._lock:
            self._failures[key] = error

    def get_failure(self, key: str) -> Optional[BaseException]:
        """The memoized exception for ``key``, or ``None``."""
        with self._lock:
            return self._failures.get(key)

    def contains(self, key: str) -> bool:
        """Membership test that does not touch the stats or LRU order."""
        with self._lock:
            if key in self._memory:
                return True
            return any(tier.contains(key) for tier in self.tiers)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and every durable tier with ``disk=True``)."""
        with self._lock:
            self._memory.clear()
            self._memory_only.clear()
            self._failures.clear()
            if disk:
                for tier in self.tiers:
                    tier.clear()

    def close(self) -> None:
        """Close every durable tier (sockets, handles); memory is untouched."""
        with self._lock:
            for tier in self.tiers:
                tier.close()

    def tier_counters(self) -> List[Dict[str, Any]]:
        """Per-tier write counters, JSON-ready for the stats endpoints."""
        with self._lock:
            return [
                {"kind": tier.kind, "writes": tier.writes} for tier in self.tiers
            ]

    def __len__(self) -> int:
        """Number of entries in the memory tier."""
        with self._lock:
            return len(self._memory)

    # -------------------------------------------------------------- internals
    def _lookup(
        self, key: str, stale: Optional[threading.Event], trace: Any
    ) -> Tuple[Optional[Any], Optional[ClaimOutcome]]:
        """One pass down the tier chain (lock held): ``(value, outcome)``.

        Memory and every tier in front of the daemon are read first.  When
        they miss and no other caller holds the local claim, the lookup
        takes it, and under a shared backend asks the daemon: the claim
        request is the daemon read.  ``outcome`` is ``None`` when another
        caller holds the local claim (the caller queues on it), else the
        answer that settles this caller's claim.  The claim carries the
        caller's span context ``trace``, not that of the ``cache:get`` span
        it is sent from, so a replica waiting on it links to the span doing
        the work.  After a local takeover the ask inherits the remote claim
        too: re-claiming under this process's owner id refreshes the lease.
        """
        if key in self._memory:
            return self._memory_hit(key), None
        for tier in self.tiers:
            if tier is not self._claims:
                with obs_span("cache:get", category="cache", tier=tier.kind) as tier_span:
                    value = tier.get(key)
                    tier_span.set(hit=value is not None, key=key[:16])
                if value is not None:
                    return self._tier_hit(tier, key, value), None
        if not self._take_local(key, stale):
            self._count_miss()
            return None, None
        if self._claims is None:
            self._count_miss()
            return None, _LOCAL_GRANT
        with obs_span("cache:get", category="cache", tier=self._claims.kind) as tier_span:
            outcome = self._claims.claim(
                key, lease_s=self.claim_timeout_s, trace=trace
            )
            tier_span.set(hit=outcome.value is not None, key=key[:16])
        if outcome.value is not None:
            self._release(key)
            return self._tier_hit(self._claims, key, outcome.value), None
        self._count_miss()
        return None, outcome

    def _take_local(self, key: str, stale: Optional[threading.Event]) -> bool:
        """Take the local claim on ``key`` (lock held); whether it was taken.

        It is taken when no caller holds it, or taken over when ``stale``
        — a claim waited on for the whole timeout, presumed dead — still
        does: the other waiters wake and re-queue behind the replacement
        instead of the orphaned event.
        """
        event = self._inflight.get(key)
        if event is not None:
            if event is not stale:
                return False
            event.set()
            self._bump("takeovers")
        self._inflight[key] = threading.Event()
        return True

    def _negotiate_shared_claim(
        self, key: str, outcome: ClaimOutcome
    ) -> Optional[Any]:
        """Settle a local miss-claim the daemon answered without the value.

        Runs while *holding* the local claim event — concurrent local
        threads queue on it, so each process sends one poller, however many
        worker threads want the key.  Re-asks run outside the lock; one
        whose answer carries an envelope is counted and promoted into
        memory like the first ask's.  Returns the remotely-published value,
        or ``None`` once this process owns the cross-process claim (or the
        daemon is unreachable, which degrades to local-only single-flight,
        or there is no daemon at all).
        """
        present_misses = 0
        waiting_counted = False
        # The first ask was answered at once; once another replica holds the
        # claim, every re-ask carries a hold bound (the tier caps it below
        # its request timeout) and the daemon answers when the claim ends.
        wait_s = 0.0
        asked_at = 0.0
        # The claim-wait span is opened lazily on the first "claimed" answer
        # and closed on whatever path ends the negotiation, so a wait on a
        # foreign replica's solve is one visible interval.  It carries the
        # claimant's serialized trace context, which links this replica's
        # trace to the trace doing the work.
        wait_cm = None
        wait_span = None
        try:
            while True:
                if outcome.state in ("granted", "unavailable"):
                    with self._lock:
                        self._bump("claims")
                        if outcome.takeover:
                            self._bump("takeovers")
                    if outcome.takeover:
                        _LOG.warning(
                            "took over expired remote claim on %s", key[:16]
                        )
                    return None
                if outcome.state == "present":
                    # The daemon holds an envelope this process cannot read
                    # (a different key version): after three such answers,
                    # stop ping-ponging and compute locally — the eventual
                    # put simply overwrites the unreadable entry.
                    present_misses += 1
                    if present_misses >= 3:
                        with self._lock:
                            self._bump("claims")
                        return None
                else:
                    # Another live replica holds the claim: re-ask until its
                    # put answers with the value, its release/expiry grants
                    # it to us, or the daemon vanishes.
                    if not waiting_counted:
                        with self._lock:
                            self._bump("claim_waits")
                        waiting_counted = True
                    if wait_cm is None:
                        wait_cm = obs_span(
                            "cache:claim-wait", category="cache", key=key[:16]
                        )
                        wait_span = wait_cm.__enter__()
                    if outcome.claimant_trace:
                        wait_span.set(claimant=outcome.claimant_trace)
                    if wait_s > 0:
                        # A re-ask came back (held or not): never ask more
                        # often than once per poll interval, so a daemon that
                        # answers at once is not spun on.
                        time.sleep(
                            max(0.0, asked_at + CLAIM_POLL_INTERVAL_S - time.monotonic())
                        )
                    wait_s = self.claim_timeout_s
                asked_at = time.monotonic()
                outcome = self._claims.claim(
                    key, lease_s=self.claim_timeout_s, wait_s=wait_s
                )
                if outcome.state == "present":
                    with self._lock:
                        if outcome.value is None:
                            self._count_miss()
                        else:
                            self._release(key)
                            return self._tier_hit(self._claims, key, outcome.value)
        finally:
            if wait_cm is not None:
                wait_cm.__exit__(None, None, None)

    def _bump(self, counter: str) -> None:
        """Increment a claim counter (lock held)."""
        obs_metrics.claim_counter().inc(event=counter)
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _release(self, key: str) -> None:
        event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def _tier_hit(self, tier: CacheTier, key: str, value: Any) -> Any:
        """Count a durable tier's hit and promote ``value`` into memory."""
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
