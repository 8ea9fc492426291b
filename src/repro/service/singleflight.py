"""Single-flight wrapper around the shared :class:`ResultCache`.

The synthesis service runs several jobs concurrently, each through its own
:meth:`BatchSynthesisEngine.run` call against one long-lived cache.  The
cache alone is not enough to deduplicate work *across* concurrent jobs:
two sweeps submitted at the same instant both miss the cache for their
shared schedule key and would both solve it.  :class:`SingleFlightCache`
closes that window with claim semantics layered over any cache-shaped
object:

* a ``get`` miss **claims** the key — the caller is expected to compute the
  artifact and ``put`` it (or ``abandon`` the claim on failure);
* a ``get`` for a key someone else holds a claim on **blocks** until the
  claim is released, then returns the freshly-stored artifact — so the
  second sweep replays the first sweep's schedule instead of re-solving it,
  exactly like the points of a single sweep share stages today;
* claims expire after ``claim_timeout_s``: if the claimant vanishes without
  releasing (a killed thread, a bug), a waiter takes the claim over and
  computes the artifact itself — slower, never deadlocked.

When the wrapped cache exposes a claim-arbitrating tier
(:attr:`ResultCache.claim_tier`, present under the ``shared`` backend), the
same protocol extends **across processes**, and the claim *is* the daemon
lookup: a lookup that misses memory and any disk tier takes the local
claim and sends one claim request in place of the daemon read
(:meth:`ResultCache.get`'s ``claim`` argument).  When the daemon holds the
key the answer is the value itself (``present``), so a hit costs one
round trip and a miss no more.  ``granted`` means this process solves;
``claimed`` means another *live* replica is mid-solve — one thread per
process re-asks (everyone else queues on the local claim event) until an
answer carries the value or the remote lease expires and the claim is
taken over.  Each re-ask is *held* by the daemon until the claim ends, so
the waiter receives the publish at once; re-asks the daemon answers at
once are paced to one per ``poll_interval_s``.  An envelope this process
cannot read (another key version) is a miss, and after three of them the
process computes.  An unreachable daemon degrades to process-local
single-flight; it never blocks or crashes a solve.

Run-level keys (:meth:`SingleFlightCache.get_nowait` lookups and
``put(..., disk=False)`` stores) never leave the process: they live in the
memory tier only, so they are neither looked up nor released remotely.

Whoever takes a claim with a ``get`` miss must release it: ``put`` on
success, ``abandon`` on every other exit.  One caller takes claims: the
batch engine's tier runner (:class:`~repro.batch.engine.BatchSynthesisEngine`,
which every synthesis with a cache goes through, ``run_one`` and the
exploration engine's schedule-only triage pass included).  It releases on
every path, so under normal operation the timeout never fires.

All inner-cache access is serialized under one lock — which also makes the
wrapped ``ResultCache`` (plain dicts, not thread-safe by itself) safe to
share between the service's worker threads.  Two daemon round trips run
inside it: a lookup's first claim request (answered at once, never held),
and the write-through ``PUT`` of :meth:`put` (as do the tier calls of
``flush_to_disk`` and ``close``).  The re-asks of a claim wait, which the
daemon holds until the foreign claim ends, and ``release`` requests run
outside it, so a wait on another replica's solve never stalls unrelated
lookups.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.trace import current_context
from repro.obs.trace import span as obs_span

_LOG = get_logger("singleflight")


class SingleFlightCache:
    """Thread-safe, claim-tracking view over a :class:`ResultCache`.

    Parameters
    ----------
    inner:
        The wrapped cache; anything with the :class:`ResultCache` surface
        (``get``/``put``/``put_failure``/``get_failure``/``contains``/
        ``flush_to_disk``/``stats``).  When it also exposes a non-``None``
        ``claim_tier``, misses negotiate cross-process claims through it.
    claim_timeout_s:
        How long a waiter blocks on another caller's claim before assuming
        the claimant died and taking the claim over; doubles as the lease
        requested on cross-process claims.  Generous by default — a
        legitimate claimant is mid-solve — and short in tests.
    poll_interval_s:
        The shortest spacing between two re-asks of the (single) waiting
        thread about a key another replica has claimed, for re-asks the
        daemon answers without holding them.
    """

    def __init__(
        self,
        inner: Any,
        claim_timeout_s: float = 300.0,
        poll_interval_s: float = 0.05,
    ) -> None:
        if claim_timeout_s <= 0:
            raise ValueError("claim_timeout_s must be positive")
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        self._inner = inner
        self._claim_timeout_s = claim_timeout_s
        self._poll_interval_s = poll_interval_s
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self._claims = getattr(inner, "claim_tier", None)

    @property
    def inner(self) -> Any:
        """The wrapped cache (for stats inspection and direct maintenance)."""
        return self._inner

    @property
    def stats(self) -> Any:
        """The wrapped cache's hit/miss counters."""
        return self._inner.stats

    @property
    def claim_tier(self) -> Any:
        """The cross-process claim arbiter in use, or ``None``."""
        return self._claims

    # ------------------------------------------------------------------- api
    def get(self, key: str) -> Optional[Any]:
        """Look up ``key``; a miss claims it, a foreign claim blocks.

        Returns the cached value, or ``None`` when the *caller* now holds
        the claim (local, and — under a shared backend — cross-process) and
        is expected to compute and ``put`` (or ``abandon``).
        """
        waited = 0.0
        watched: Optional[threading.Event] = None
        while True:
            # A claim waited on for the whole timeout is presumed dead.
            stale = watched if waited >= self._claim_timeout_s else None
            with self._lock:
                if self._claims is None:
                    value = self._inner.get(key)
                    if value is None and self._take_local(key, stale):
                        self._bump("claims")
                        return None
                else:
                    ask = _FirstAsk(self, stale)
                    value = self._inner.get(key, claim=ask)
                    if value is None and ask.outcome is not None:
                        break  # holds the local claim; settle the remote one below
                if value is not None:
                    return value
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
            event.wait(timeout=self._claim_timeout_s - waited)
            waited += time.monotonic() - start
        return self._negotiate_shared_claim(key, ask.outcome)

    def get_nowait(self, key: str) -> Optional[Any]:
        """Thread-safe memory-tier lookup: no claiming, no waiting.

        Used by the batch engine for run-level keys, which stay held for a
        job's whole run — blocking on (or claiming) those from concurrent
        engines could chain into hold-and-wait cycles, and nothing waits on
        them anyway.  They are stored memory-only, so no durable tier (and
        no daemon) is asked.  Misses are simply misses; deduplication
        happens at the stage keys.
        """
        with self._lock:
            return self._inner.get_memory(key)

    def put(self, key: str, value: Any, disk: bool = True) -> None:
        """Store ``value`` and release the claim on ``key`` (waking waiters).

        Under a shared backend the write-through publish is itself the
        remote release (the daemon drops the claim when the value arrives);
        when that publish soft-failed, the claim is released explicitly so
        other replicas stop waiting and compute.  A memory-only store
        (``disk=False``, run-level keys) was never claimed remotely and
        sends nothing.
        """
        with self._lock:
            self._inner.put(key, value, disk=disk)
            self._release(key)
        if self._claims is not None and disk and not self._claims.is_clean(key):
            self._claims.release(key)

    def abandon(self, key: str) -> None:
        """Release the claim on ``key`` without storing anything.

        Called by the batch engine when a claimed stage (or run) ends in
        failure; waiters wake — local and, under a shared backend, in every
        replica — find the key still missing, and claim it themselves.
        Abandoning an unclaimed or already-released key is a no-op, so
        callers need not track claim ownership precisely.
        """
        with self._lock:
            self._release(key)
        if self._claims is not None:
            self._claims.release(key)

    def put_failure(self, key: str, error: BaseException) -> None:
        """Memoize a failure in the inner cache (claims are unaffected)."""
        with self._lock:
            self._inner.put_failure(key, error)

    def get_failure(self, key: str) -> Optional[BaseException]:
        """The inner cache's memoized exception for ``key``, or ``None``."""
        with self._lock:
            return self._inner.get_failure(key)

    def contains(self, key: str) -> bool:
        """Stats-free membership test against the inner cache."""
        with self._lock:
            return self._inner.contains(key)

    def flush_to_disk(self) -> int:
        """Flush the inner cache's dirty durable entries to its tiers."""
        with self._lock:
            return self._inner.flush_to_disk()

    def close(self) -> None:
        """Close the inner cache's durable tiers (when it has any)."""
        close = getattr(self._inner, "close", None)
        if close is not None:
            with self._lock:
                close()

    def tier_counters(self) -> List[Dict[str, Any]]:
        """The inner cache's per-tier write counters (empty when absent)."""
        counters = getattr(self._inner, "tier_counters", None)
        if counters is None:
            return []
        with self._lock:
            return counters()

    def __len__(self) -> int:
        """Number of entries in the inner cache's memory tier."""
        with self._lock:
            return len(self._inner)

    # -------------------------------------------------------------- internals
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

    def _negotiate_shared_claim(self, key: str, outcome: Any) -> Optional[Any]:
        """Settle a local miss-claim the daemon answered without the value.

        Runs while *holding* the local claim event — concurrent local
        threads queue on it, so each process sends one poller, however many
        worker threads want the key.  Re-asks run outside the lock; one
        whose answer carries an envelope goes through the inner cache's
        ``get`` like the first ask did, so it is counted and promoted into
        memory.  Returns the remotely-published value, or ``None`` once
        this process owns the cross-process claim (or the daemon is
        unreachable, which degrades to local-only single-flight).
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
                    claimant = getattr(outcome, "claimant_trace", None)
                    if claimant:
                        wait_span.set(claimant=claimant)
                    if wait_s > 0:
                        # A re-ask came back (held or not): never ask more
                        # often than once per poll interval, so a daemon that
                        # answers at once is not spun on.
                        time.sleep(
                            max(0.0, asked_at + self._poll_interval_s - time.monotonic())
                        )
                    wait_s = self._claim_timeout_s
                asked_at = time.monotonic()
                outcome = self._claims.claim(
                    key, lease_s=self._claim_timeout_s, wait_s=wait_s
                )
                if outcome.state == "present":
                    with self._lock:
                        value = self._inner.get(
                            key, claim=lambda _key, answer=outcome: answer.value
                        )
                        if value is not None:
                            self._release(key)
                            return value
        finally:
            if wait_cm is not None:
                wait_cm.__exit__(None, None, None)

    def _bump(self, counter: str) -> None:
        """Increment a claim counter on the inner stats, when it has one."""
        obs_metrics.claim_counter().inc(event=counter)
        stats = getattr(self._inner, "stats", None)
        if stats is not None and hasattr(stats, counter):
            setattr(stats, counter, getattr(stats, counter) + 1)

    def _release(self, key: str) -> None:
        event = self._inflight.pop(key, None)
        if event is not None:
            event.set()


class _FirstAsk:
    """The claim tier's read in one :meth:`SingleFlightCache.get` lookup.

    :meth:`ResultCache.get` calls it, with the lock held, once memory and
    every tier in front of the daemon missed.  When another caller of this
    process holds the local claim it sends nothing: the lookup is a miss and
    the caller queues on that claim.  Otherwise it takes the local claim
    and asks the daemon; an answer that carries the value also releases the
    local claim.  After a local takeover the ask inherits the remote claim
    too: re-claiming under this process's owner id refreshes the lease.
    The claim carries the caller's span context, not that of the
    ``cache:get`` span it is sent from, so a replica waiting on it links to
    the span doing the work.
    """

    def __init__(
        self, flight: SingleFlightCache, stale: Optional[threading.Event]
    ) -> None:
        self.flight = flight
        self.stale = stale
        self.trace = current_context()
        #: The daemon's answer, once this lookup asked.
        self.outcome: Any = None

    def __call__(self, key: str) -> Optional[Any]:
        flight = self.flight
        if not flight._take_local(key, self.stale):
            return None
        self.outcome = flight._claims.claim(
            key, lease_s=flight._claim_timeout_s, trace=self.trace
        )
        if self.outcome.value is not None:
            flight._release(key)
        return self.outcome.value
