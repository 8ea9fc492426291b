"""The shared cache tier: a blocking HTTP client for the cache daemon.

The ``shared`` backend lets N ``repro serve`` replicas (or parallel batch
runs) pool one content-addressed store — and, through the daemon's claim
records, extend single-flight "exactly one process solves each miss"
semantics across process boundaries.  The client half lives here, built on
nothing but stdlib :mod:`http.client` so :mod:`repro.batch` stays free of
any dependency on :mod:`repro.service` (the daemon itself lives in
:mod:`repro.service.cachedaemon`, next to the server that reuses the same
HTTP framing).

Values travel as the same opaque ``(KEY_VERSION, payload)`` pickle
envelopes the disk tier writes; the daemon stores bytes it never decodes,
so a mixed-version replica fleet degrades to per-version misses instead of
poisoning each other.  Like every tier, the network is *soft*: an
unreachable daemon turns reads into misses, writes into no-ops, and claims
into :data:`ClaimOutcome` state ``"unavailable"`` — callers degrade to
process-local behavior, they never crash.

Entries are pickles, so the daemon must only ever be reachable by trusted
replicas (bind it to loopback or a private network), the same trust
posture as the synthesis service itself.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.batch.cache_backends.base import (
    CacheTier,
    decode_envelope,
    encode_envelope,
)
from repro.obs.trace import TRACE_HEADER, SpanContext, current_context

#: Default lease on a cross-process claim; a claimant that neither
#: publishes nor releases within the lease is presumed dead and taken over.
DEFAULT_LEASE_S = 300.0

#: Per-request timeout of a tier's daemon requests.
REQUEST_TIMEOUT_S = 10.0

#: Idle daemon connections one tier keeps for reuse; a connection returned
#: beyond this is closed.
MAX_IDLE_CONNECTIONS = 8

#: Content type of a response body that is a raw value envelope (``GET
#: /kv/{key}``, and a claim answer for a stored key); every other answer
#: is JSON.
ENVELOPE_CONTENT_TYPE = "application/octet-stream"


def send_request(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes],
    headers: Dict[str, str],
) -> http.client.HTTPResponse:
    """Send one request on a keep-alive connection; the response, unread.

    When a connection that already carried a request fails before any
    response byte arrives, the server closed it while it sat idle (a
    restart, or its shutdown) and never saw the request, so the request
    is sent once more on a fresh connection.  Any other failure
    propagates; the caller closes ``connection``.
    """
    reused = connection.sock is not None
    try:
        connection.request(method, path, body=body, headers=headers)
        return connection.getresponse()
    except ConnectionError:
        if not reused:
            raise
    # http.client opens a fresh socket on the next request after close().
    connection.close()
    connection.request(method, path, body=body, headers=headers)
    return connection.getresponse()


def parse_cache_addr(addr: str) -> Tuple[str, int]:
    """Split a ``host:port`` cache address; :class:`ValueError` when malformed."""
    host, sep, port_text = addr.rpartition(":")
    if not sep or not host:
        raise ValueError(f"cache address {addr!r} is not of the form host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"cache address {addr!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ValueError(f"cache address {addr!r} has an out-of-range port")
    return host, port


@dataclass
class ClaimOutcome:
    """The daemon's answer to one cross-process claim attempt.

    ``state`` is one of:

    * ``"granted"`` — this process owns the claim and must compute the
      value (``takeover`` marks grants that displaced an expired lease);
    * ``"present"`` — the value is already in the shared store: the answer
      carried its envelope, decoded into ``value`` (``None`` when this
      process cannot read it, e.g. another key version wrote it);
    * ``"claimed"`` — another live process holds the claim, whose lease
      has ``retry_after_s`` seconds left; ask again (a held ask returns
      as soon as the claim ends);
    * ``"unavailable"`` — the daemon could not be reached; degrade to
      process-local single-flight and compute.

    ``claimant_trace`` is the holding process's serialized span context
    (``trace_id:span_id``), echoed by the daemon on ``"claimed"`` answers
    when the claimant was tracing — it lets a waiting replica's trace link
    to the trace actually doing the work.
    """

    state: str
    takeover: bool = False
    retry_after_s: float = 0.0
    claimant_trace: Optional[str] = None
    value: Any = None


class SharedCacheTier(CacheTier):
    """Key-value + claim client speaking to one ``repro cache-daemon``.

    Requests go over keep-alive connections kept in a small idle list:
    a call takes one (or opens one), and returns it after a complete
    response.  The list is shared under a lock, not kept per thread: the
    service's job threads live for one submission each, so per-thread
    connections would never be reused.  The tier is safe to call from any
    number of threads; :meth:`close` closes the idle connections.
    """

    kind = "shared"

    def __init__(
        self, cache_addr: str, request_timeout_s: float = REQUEST_TIMEOUT_S
    ) -> None:
        super().__init__()
        self.cache_addr = cache_addr
        self.host, self.port = parse_cache_addr(cache_addr)
        self.request_timeout_s = request_timeout_s
        #: Stable claim-owner identity of this process; the daemon uses it
        #: to make claim/release idempotent per owner.
        self.owner = f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    # ------------------------------------------------------------------- tier
    def get(self, key: str) -> Optional[Any]:
        """Fetch and decode one entry; any network failure is a miss."""
        status, body = self._request("GET", f"/kv/{key}")
        if status != 200 or body is None:
            return None
        ok, value = decode_envelope(body)
        if not ok:
            # Entry written by a different key version (mixed-version
            # fleet): a miss for us, but other replicas may still want it,
            # so it is left in place rather than deleted.
            return None
        self._note_observed(key)
        return value

    def put(self, key: str, value: Any) -> bool:
        """Publish one entry (which also releases any claim on its key)."""
        status, _ = self._request("PUT", f"/kv/{key}", body=encode_envelope(value))
        if status != 200:
            return False
        self._note_write(key)
        return True

    def contains(self, key: str) -> bool:
        """Whether the daemon holds ``key`` (``False`` when unreachable)."""
        status, _ = self._request("HEAD", f"/kv/{key}")
        return status == 200

    def clear(self) -> None:
        """Ask the daemon to drop every entry and claim (best effort)."""
        self._request("POST", "/clear")
        self._clean.clear()

    def close(self) -> None:
        """Close the idle pooled connections."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    # ------------------------------------------------------------------ claims
    def claim(
        self,
        key: str,
        lease_s: float = DEFAULT_LEASE_S,
        wait_s: float = 0.0,
        trace: Optional[SpanContext] = None,
    ) -> ClaimOutcome:
        """Try to acquire the cross-process claim on ``key``.

        Re-claiming a key this owner already holds refreshes the lease and
        is granted again — which is what lets a process-local takeover
        (original thread presumed dead, same process) inherit the remote
        claim without a round of lease expiry.  A positive ``wait_s`` asks
        the daemon to hold a ``claimed`` answer until the claim ends, for
        at most ``wait_s`` seconds, capped at half the request timeout.
        ``trace`` is the span context a granted claim records for waiting
        replicas (by default the active span's).

        The claim doubles as the lookup: when the daemon holds ``key`` it
        answers with the stored envelope itself (an ``application/
        octet-stream`` body), returned decoded as a ``"present"`` outcome's
        ``value`` — so no ``GET`` has to follow.
        """
        request = {"owner": self.owner, "lease_s": lease_s}
        if wait_s > 0:
            request["wait_s"] = min(wait_s, self.request_timeout_s / 2)
        payload = json.dumps(request).encode("utf-8")
        response, body = self._exchange("POST", f"/claim/{key}", payload, trace)
        if response is None or response.status != 200:
            return ClaimOutcome(state="unavailable")
        if response.getheader("Content-Type") == ENVELOPE_CONTENT_TYPE:
            ok, value = decode_envelope(body)
            if ok:
                self._note_observed(key)
            return ClaimOutcome(state="present", value=value)
        try:
            answer = json.loads(body.decode("utf-8"))
            state = answer["state"]
            if state not in ("granted", "claimed"):
                raise ValueError(state)
            claimant = answer.get("claimant_trace")
            return ClaimOutcome(
                state=state,
                takeover=bool(answer.get("takeover", False)),
                retry_after_s=float(answer.get("retry_after_s", 0.0)),
                claimant_trace=claimant if isinstance(claimant, str) else None,
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            return ClaimOutcome(state="unavailable")

    def release(self, key: str) -> None:
        """Release this owner's claim on ``key`` (no-op for other owners)."""
        payload = json.dumps({"owner": self.owner}).encode("utf-8")
        self._request("POST", f"/release/{key}", body=payload)

    # -------------------------------------------------------------- internals
    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[Optional[int], Optional[bytes]]:
        """One request/response; ``(None, None)`` on any transport failure."""
        response, data = self._exchange(method, path, body)
        return (response.status if response is not None else None), data

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        trace: Optional[SpanContext] = None,
    ) -> Tuple[Optional[http.client.HTTPResponse], Optional[bytes]]:
        """One request; the (read) response and its body, ``(None, None)``
        on any transport failure.

        A pooled connection the daemon closed while idle gets the one
        fresh-connection retry of :func:`send_request`: every daemon
        endpoint is idempotent per owner (a re-claim refreshes the lease,
        ``PUT`` overwrites, release is owner-checked).

        When the calling context is tracing, the request carries ``trace``,
        or else the active span context, in the :data:`TRACE_HEADER` header
        — on claim requests the daemon stores it with the claim record and
        echoes it to waiting replicas, which links a cross-replica claim
        wait to the claimant's trace.
        """
        headers = {}
        ctx = trace or current_context()
        if ctx is not None:
            headers[TRACE_HEADER] = ctx.serialize()
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.request_timeout_s
            )
        try:
            response = send_request(connection, method, path, body, headers)
            data = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            return None, None
        with self._idle_lock:
            # A socket-less connection is one the daemon closed after this
            # response; it is not worth keeping.
            pooled = (
                connection.sock is not None and len(self._idle) < MAX_IDLE_CONNECTIONS
            )
            if pooled:
                self._idle.append(connection)
        if not pooled:
            connection.close()
        return response, data
