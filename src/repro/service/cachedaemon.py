"""The shared cache daemon: one key-value + claim arbiter for N replicas.

``repro cache-daemon`` runs this tiny asyncio server; every ``repro serve``
replica (or batch run) configured with ``--cache-backend shared`` points
its :class:`~repro.batch.cache_backends.SharedCacheTier` at it.  The
daemon stores *opaque* byte envelopes — it never unpickles a value, so a
buggy or version-skewed client cannot crash it — plus claim records that
extend single-flight semantics across processes:

* ``GET/HEAD/PUT /kv/{key}`` — the key-value store (raw envelope bodies);
  a ``PUT`` also releases any claim on its key, which is how "the solve
  finished" is announced to every waiting replica.
* ``POST /claim/{key}`` — claim arbitration, and the lookup itself: when
  the value already exists the reply *is* the value — the stored envelope
  as an opaque ``application/octet-stream`` body, exactly what ``GET``
  would return (counted as a get and a hit, and as ``claims_present``) —
  so a replica's lookup costs one round trip whether it hits or misses.
  Otherwise the JSON reply is ``granted`` when the caller may compute
  (with ``takeover: true`` when it displaced an expired lease), or
  ``claimed`` with ``retry_after_s`` (the seconds left on the holder's
  lease) while another live owner holds the claim.  A claim carries a
  lease; an owner that neither publishes nor releases within it is
  presumed dead, so a crashed replica delays its waiters by at most one
  lease.  A claim body with a positive ``wait_s`` is *held* while the key
  stays claimed by a live owner: the answer goes out when the key is
  published (carrying the value), released or cleared, when the lease
  expires (a takeover grant), after ``wait_s`` seconds, or at shutdown —
  so a waiting replica receives the publish at once instead of at its
  next poll.
* ``POST /release/{key}`` — voluntary release (owner-checked, idempotent).
* ``GET /stats``, ``GET /metrics`` (Prometheus text exposition),
  ``GET /healthz``, ``POST /clear``, ``POST /shutdown``.

A claim request whose :data:`~repro.obs.trace.TRACE_HEADER` header carries
a span context gets it stored on the claim record; ``claimed`` answers echo
it as ``claimant_trace``, so a replica waiting on a foreign solve can link
its trace to the trace doing the work.  The daemon's counters live in the
process metrics registry (:class:`DaemonStats` is a view over it), which
``GET /metrics`` renders directly.

Everything runs on the event-loop thread — requests are tiny and the store
is in memory, so there are no worker threads and no locks.  Like the
synthesis service, the daemon reuses the hand-rolled HTTP framing of
:mod:`repro.service.http` (keep-alive connections, so a replica's pooled
connections each carry many requests) and binds loopback by default:
entries are pickles, so only trusted replicas may reach it.
"""

from __future__ import annotations

import asyncio
import re
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.batch.cache_backends.shared import DEFAULT_LEASE_S, ENVELOPE_CONTENT_TYPE
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.trace import TRACE_HEADER
from repro.service.http import (
    MAX_BODY_BYTES,
    Connections,
    HttpError,
    RawBody,
    Request,
    Routed,
)

_LOG = get_logger("cachedaemon")

#: Keys are SHA-256 hex digests in practice; the permissive charset also
#: admits test keys, but still rules out path games and header injection.
_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,200}$")

#: Ceiling on a single claim's lease; a claimant asking for more is
#: clamped, so one bad client cannot park a key for a day.
MAX_LEASE_S = 3600.0


@dataclass
class CacheDaemonConfig:
    """Everything tunable about one :class:`CacheDaemon` instance."""

    #: Interface to bind; loopback by default — entries are pickles, so the
    #: daemon must only be reachable by trusted replicas.
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (read it back from
    #: :attr:`CacheDaemon.bound_port`).
    port: int = 8643
    #: Bound on stored entries; least-recently-used entries are evicted.
    max_entries: int = 4096
    #: Reject value bodies larger than this (physical artifacts are tens of
    #: KB; the default leaves two orders of magnitude of headroom).
    max_body_bytes: int = MAX_BODY_BYTES


@dataclass
class _Claim:
    """One live claim record: who owns it and when the lease runs out.

    ``trace`` is the claimant's serialized span context (when it sent one),
    echoed to waiting replicas so their claim-wait spans can reference the
    trace doing the work.  ``ended`` is set when the record stops being the
    key's claim (published, released, replaced or cleared) or the daemon
    shuts down; held claim requests wait on it.
    """

    owner: str
    deadline: float = 0.0
    trace: Optional[str] = None
    ended: asyncio.Event = field(default_factory=asyncio.Event)


@dataclass
class DaemonStats:
    """Daemon-side counters of one :class:`CacheDaemon`.

    Each event is counted here (read as ``stats.<event>``, served by
    ``GET /stats``) and in the process-wide
    :func:`repro.obs.metrics.daemon_events_counter`
    (``repro_cachedaemon_events_total{event=...}``, served by
    ``GET /metrics``), so two daemons in one process never see each
    other's events in ``/stats``.
    """

    gets: int = 0
    hits: int = 0
    puts: int = 0
    evictions: int = 0
    claims_granted: int = 0
    claims_present: int = 0
    claims_denied: int = 0
    takeovers: int = 0
    releases: int = 0

    def inc(self, event: str) -> None:
        """Record one daemon event (must name a field)."""
        if event not in self.__dataclass_fields__:
            raise ValueError(f"unknown daemon event {event!r}")
        setattr(self, event, getattr(self, event) + 1)
        obs_metrics.daemon_events_counter().inc(event=event)

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-ready mapping (historical shape)."""
        return asdict(self)


class CacheDaemon:
    """The daemon object: build once, ``await serve_forever()``.

    Single-use, like :class:`~repro.service.server.SynthesisService`; all
    state mutation happens on the event-loop thread.
    """

    def __init__(self, config: Optional[CacheDaemonConfig] = None) -> None:
        self.config = config or CacheDaemonConfig()
        if self.config.max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.stats = DaemonStats()
        #: Actual bound port once started (differs from config.port for 0).
        self.bound_port: Optional[int] = None
        #: Set once the listener is accepting — lets a hosting thread hand
        #: the bound port to blocking-client code safely.
        self.ready = threading.Event()
        self._store: "OrderedDict[str, bytes]" = OrderedDict()
        self._claims: Dict[str, _Claim] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._started_at: Optional[float] = None
        self._connections = Connections()

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listener (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self.ready.set()
        _LOG.info(
            "cache daemon listening on %s:%s (max_entries=%s)",
            self.config.host,
            self.bound_port,
            self.config.max_entries,
        )

    async def serve_forever(self) -> None:
        """Run until shutdown is requested, then close the listener."""
        if self._server is None:
            await self.start()
        try:
            await self._shutdown_event.wait()
        finally:
            self._server.close()
            for claim in self._claims.values():
                claim.ended.set()  # held claim requests answer now
            await self._connections.close()
            await self._server.wait_closed()
            _LOG.info("cache daemon stopped")

    def request_shutdown(self) -> None:
        """Begin shutdown (callable from handlers or signal hooks)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Like :meth:`request_shutdown`, safe from any thread."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(self.request_shutdown)

    # -------------------------------------------------------------- requests
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve the requests of one keep-alive connection."""
        await self._connections.serve(
            reader, writer, self._route, max_body_bytes=self.config.max_body_bytes
        )

    async def _route(self, request: Request) -> Routed:
        """Dispatch one request: status, payload and an after-send callback."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._healthz_payload(), None
        if path == "/stats" and method == "GET":
            return 200, self._stats_payload(), None
        if path == "/metrics" and method == "GET":
            self._update_gauges()
            return (
                200,
                RawBody(render_prometheus().encode("utf-8"), PROMETHEUS_CONTENT_TYPE),
                None,
            )
        if path == "/shutdown" and method == "POST":
            # The response is written before shutdown fires, so the
            # requesting client always hears the acknowledgement.
            return 202, {"status": "shutting down"}, self.request_shutdown
        if path == "/clear" and method == "POST":
            self._store.clear()
            for key in list(self._claims):
                self._drop_claim(key)
            return 200, {"status": "cleared"}, None
        if path.startswith("/kv/"):
            return (*self._kv_endpoint(method, path[len("/kv/"):], request), None)
        if path.startswith("/claim/"):
            return (
                *await self._claim_endpoint(method, path[len("/claim/"):], request),
                None,
            )
        if path.startswith("/release/"):
            return (
                *self._release_endpoint(method, path[len("/release/"):], request),
                None,
            )
        raise HttpError(404, f"no such endpoint: {method} {request.path}")

    def _kv_endpoint(self, method: str, key: str, request: Request) -> Tuple[int, Any]:
        """``GET``/``HEAD``/``PUT /kv/{key}``: the raw-envelope store."""
        key = self._check_key(key)
        if method in ("GET", "HEAD"):
            self.stats.inc("gets")
            data = self._store.get(key)
            if data is None:
                # A HEAD answer carries no body: the client reads none, and
                # a stray body would corrupt the next response on the
                # connection.
                return 404, None if method == "HEAD" else {"error": f"no such key: {key}"}
            self.stats.inc("hits")
            self._store.move_to_end(key)
            return 200, RawBody(data if method == "GET" else b"", ENVELOPE_CONTENT_TYPE)
        if method == "PUT":
            if not request.body:
                raise HttpError(400, "PUT /kv/{key} requires a non-empty body")
            self.stats.inc("puts")
            self._store[key] = request.body
            self._store.move_to_end(key)
            while len(self._store) > self.config.max_entries:
                self._store.popitem(last=False)
                self.stats.inc("evictions")
            # Publishing the value is the definitive release: every replica
            # waiting on the claim now sees "present" and just reads.
            self._drop_claim(key)
            return 200, {"status": "stored"}
        raise HttpError(405, f"{method} not supported on /kv/{{key}}")

    async def _claim_endpoint(
        self, method: str, key: str, request: Request
    ) -> Tuple[int, Any]:
        """``POST /claim/{key}``: single-flight claim arbitration.

        A stored key is answered with its envelope (the ``present`` answer
        carries the value).  A positive ``wait_s`` in the body holds a
        ``claimed`` answer for up to that many seconds, re-deciding
        whenever the holder's record ends or its lease runs out.
        """
        if method != "POST":
            raise HttpError(405, f"{method} not supported on /claim/{{key}}")
        key = self._check_key(key)
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("owner"), str):
            raise HttpError(400, "claim body must be a JSON object with an 'owner'")
        owner = body["owner"]
        lease_s = body.get("lease_s", DEFAULT_LEASE_S)
        if not isinstance(lease_s, (int, float)) or lease_s <= 0:
            lease_s = DEFAULT_LEASE_S
        lease_s = min(float(lease_s), MAX_LEASE_S)
        wait_s = body.get("wait_s", 0.0)
        if not isinstance(wait_s, (int, float)):
            wait_s = 0.0  # answer at once, like a claim without a bound
        hold_until = time.monotonic() + wait_s

        while True:
            data = self._store.get(key)
            if data is not None:
                self.stats.inc("claims_present")
                self.stats.inc("gets")
                self.stats.inc("hits")
                self._store.move_to_end(key)
                return 200, RawBody(data, ENVELOPE_CONTENT_TYPE)
            now = time.monotonic()
            claim = self._claims.get(key)
            if claim is None or claim.owner == owner:
                takeover = False
                break
            if claim.deadline <= now:
                # The lease ran out: the claimant is presumed dead, and the
                # caller inherits the claim instead of waiting forever.
                takeover = True
                self.stats.inc("takeovers")
                _LOG.warning(
                    "claim on %s taken over from expired owner %s",
                    key[:16],
                    claim.owner,
                )
                break
            hold_s = min(hold_until, claim.deadline) - now
            if hold_s <= 0 or self._shutdown_event.is_set():
                self.stats.inc("claims_denied")
                answer = {
                    "state": "claimed",
                    "retry_after_s": round(claim.deadline - now, 3),
                }
                if claim.trace is not None:
                    answer["claimant_trace"] = claim.trace
                return 200, answer
            try:
                await asyncio.wait_for(claim.ended.wait(), hold_s)
            except asyncio.TimeoutError:
                pass
        self._drop_claim(key)
        self._claims[key] = _Claim(
            owner=owner,
            deadline=now + lease_s,
            trace=request.headers.get(TRACE_HEADER) or None,
        )
        self.stats.inc("claims_granted")
        return 200, {"state": "granted", "takeover": takeover}

    def _release_endpoint(
        self, method: str, key: str, request: Request
    ) -> Tuple[int, Any]:
        """``POST /release/{key}``: owner-checked voluntary claim release."""
        if method != "POST":
            raise HttpError(405, f"{method} not supported on /release/{{key}}")
        key = self._check_key(key)
        body = request.json()
        owner = body.get("owner") if isinstance(body, dict) else None
        claim = self._claims.get(key)
        if claim is not None and claim.owner == owner:
            self._drop_claim(key)
            self.stats.inc("releases")
            return 200, {"status": "released"}
        return 200, {"status": "ignored"}

    def _drop_claim(self, key: str) -> None:
        """Remove ``key``'s claim record, waking the requests held on it."""
        claim = self._claims.pop(key, None)
        if claim is not None:
            claim.ended.set()

    def _healthz_payload(self) -> Any:
        """``GET /healthz``: liveness plus store gauges."""
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self._started_at, 3)
            if self._started_at is not None
            else 0.0,
            "entries": len(self._store),
            "claims": len(self._claims),
        }

    def _stats_payload(self) -> Any:
        """``GET /stats``: counters plus store gauges."""
        payload = self.stats.as_dict()
        payload["entries"] = len(self._store)
        payload["claims"] = len(self._claims)
        payload["max_entries"] = self.config.max_entries
        return payload

    def _update_gauges(self) -> None:
        """Refresh the live-object gauges right before a ``/metrics`` scrape."""
        gauge = obs_metrics.daemon_entries_gauge()
        gauge.set(len(self._store), kind="entries")
        gauge.set(len(self._claims), kind="claims")

    @staticmethod
    def _check_key(key: str) -> str:
        """Validate one key path segment; :class:`HttpError` 400 otherwise."""
        if not _KEY_RE.match(key):
            raise HttpError(400, f"malformed cache key: {key[:80]!r}")
        return key
