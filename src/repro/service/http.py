"""Minimal HTTP/1.1 framing over asyncio streams.

The synthesis service deliberately avoids web frameworks *and*
``http.server`` (whose threading model fights asyncio): requests are parsed
directly off an :class:`asyncio.StreamReader` and responses serialized to
plain bytes.  Only the slice of HTTP the service speaks is implemented —
``GET``/``HEAD``/``PUT``/``POST``, ``Content-Length`` bodies and
HTTP/1.1 keep-alive — which keeps the parser small enough to test
exhaustively.

A connection serves requests until the client closes it or asks for
``Connection: close``, an error response leaves the stream state unknown,
or the server shuts down; only a response written just before such a close
carries ``Connection: close``.  :class:`Connections` runs that loop for
both servers and closes the idle connections when shutdown begins (from
Python 3.12.1 on, ``asyncio.Server.wait_closed`` waits for every open
connection, idle keep-alive ones included).

Malformed input raises :class:`HttpError` with the status code the caller
should answer with; transport-level termination (peer closed mid-request)
returns ``None`` from :func:`read_request` instead, so the handler can drop
the connection silently.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

#: Upper bound on a request body; a sweep manifest is a few KB, so anything
#: approaching this is a client bug, not a workload.
MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 64

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request the server must reject with ``status`` and a message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request (method, path without query, headers, body)."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the client lets the connection carry another request."""
        tokens = {
            token.strip() for token in self.headers.get("connection", "").lower().split(",")
        }
        return self.version != "HTTP/1.0" and "close" not in tokens

    def json(self) -> Any:
        """The body parsed as JSON; :class:`HttpError` 400 when invalid."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One CRLF(-ish) terminated header line, bounded against header floods."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from exc
        line = exc.partial
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "header line too long") from exc
    if len(line) > _MAX_HEADER_LINE:
        raise HttpError(400, "header line too long")
    return line.rstrip(b"\r\n")


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off ``reader``.

    Returns ``None`` when the peer closed the connection before sending a
    request line; raises :class:`HttpError` on anything malformed.
    """
    try:
        request_line = await _read_line(reader)
    except EOFError:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line: {request_line[:80]!r}")
    method, target, version = parts

    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        try:
            line = await _read_line(reader)
        except EOFError as exc:
            raise HttpError(400, "connection closed inside headers") from exc
        if not line:
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many header lines")

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if length < 0:
            raise HttpError(400, "malformed Content-Length")
        if length > max_body_bytes:
            raise HttpError(413, f"request body exceeds {max_body_bytes} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "connection closed inside body") from exc
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    # The query string (if any) is dropped: no endpoint takes parameters.
    path = target.split("?", 1)[0]
    return Request(
        method=method.upper(), path=path, headers=headers, body=body, version=version
    )


def response_bytes(
    status: int,
    payload: Any = None,
    *,
    raw: Optional[bytes] = None,
    content_type: str = "application/json",
    close: bool = False,
) -> bytes:
    """Serialize one response to raw bytes.

    ``payload`` is JSON-encoded; ``raw`` sends pre-encoded bytes verbatim
    (the cache daemon's value envelopes are opaque pickles, not JSON) and
    takes precedence when both are given.  ``content_type`` applies to
    ``raw`` bodies; JSON payloads always go out as ``application/json``.
    ``close`` adds ``Connection: close``: the server closes the connection
    after this response.
    """
    if raw is not None:
        body, ctype = raw, content_type
    elif payload is not None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        ctype = "application/json"
    else:
        body, ctype = b"", "application/json"
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\n"
        + ("Connection: close\r\n" if close else "")
        + "\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class RawBody:
    """A non-JSON response body (opaque envelopes, ``GET /metrics``)."""

    data: bytes
    content_type: str


#: What a server's router returns for one request: the status, a JSON
#: payload or :class:`RawBody`, and an optional callback to run once the
#: response is out and the connection closed (``POST /shutdown``).
Routed = Tuple[int, Any, Optional[Callable[[], None]]]


class Connections:
    """The keep-alive connections of one server, served and shut down.

    :meth:`serve` is the per-connection request loop.  :meth:`close` begins
    shutdown: it closes every connection waiting for its next request and
    waits until each busy one has answered (with ``Connection: close``)
    and closed, so ``asyncio.Server.wait_closed`` returns at once after it
    and no handler is left for the loop's teardown to cancel.  Loop-thread
    only.
    """

    def __init__(self) -> None:
        #: Connections waiting for their next request.
        self._idle: Set[asyncio.StreamWriter] = set()
        #: The handler task of every open connection.
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._closing = False

    async def close(self) -> None:
        """Close idle connections; wait for busy ones to answer and close."""
        self._closing = True
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            await asyncio.wait(set(self._handlers))

    async def serve(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        route: Callable[[Request], Awaitable[Routed]],
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        """Answer requests on one connection until it should close."""
        handler = asyncio.current_task()
        self._handlers.add(handler)
        after_send: Optional[Callable[[], None]] = None
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await read_request(reader, max_body_bytes=max_body_bytes)
                    if request is None:
                        return
                    self._idle.discard(writer)
                    status, payload, after_send = await route(request)
                    close = after_send is not None or not request.keep_alive
                except HttpError as exc:
                    status, payload, close = exc.status, {"error": exc.message}, True
                except Exception as exc:  # noqa: BLE001 - never kill the listener
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                    close = True
                close = close or self._closing
                if isinstance(payload, RawBody):
                    writer.write(
                        response_bytes(
                            status,
                            raw=payload.data,
                            content_type=payload.content_type,
                            close=close,
                        )
                    )
                else:
                    writer.write(response_bytes(status, payload, close=close))
                await writer.drain()
                if close:
                    return
        except Exception:  # noqa: BLE001 - a broken transport ends only its connection
            pass
        finally:
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            finally:
                self._handlers.discard(handler)
            if after_send is not None:
                after_send()
