"""Tests of the hand-rolled HTTP/1.1 framing (``repro.service.http``) as
both servers speak it: keep-alive request loops on raw sockets, the cases
that close a connection, body limits, one-connection-per-request clients,
and shutdown with idle keep-alive connections still open."""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import socket
import threading
import time

import pytest

from repro.batch.cache_backends.shared import SharedCacheTier
from repro.service import (
    CacheDaemon,
    CacheDaemonConfig,
    ServiceClient,
    ServiceConfig,
    SynthesisService,
)

KEY_A = "a" * 64
KEY_B = "b" * 64
BODY_LIMIT = 1024


@contextlib.contextmanager
def running(server):
    """``server`` serving on a thread; yields the thread, stops it on exit."""
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    assert server.ready.wait(timeout=10.0), "server did not become ready"
    try:
        yield thread
    finally:
        server.request_shutdown_threadsafe()
        thread.join(timeout=10.0)


def build(kind, port=0):
    if kind == "daemon":
        return CacheDaemon(CacheDaemonConfig(port=port, max_body_bytes=BODY_LIMIT))
    return SynthesisService(ServiceConfig(port=port, max_body_bytes=BODY_LIMIT))


@pytest.fixture(params=["daemon", "service"])
def server(request):
    instance = build(request.param)
    with running(instance):
        yield instance


@pytest.fixture()
def conn(server):
    """A raw socket to ``server`` and a buffered reader over it."""
    sock = socket.create_connection(("127.0.0.1", server.bound_port), timeout=5.0)
    stream = sock.makefile("rb")
    try:
        yield sock, stream
    finally:
        stream.close()
        sock.close()


def read_response(stream):
    """``(status, headers, body)`` of the next response; ``None`` at EOF."""
    status_line = stream.readline()
    if not status_line:
        return None
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline().rstrip(b"\r\n")
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers.get("content-length", "0")))
    return status, headers, body


def healthz(extra_headers=b"", body=b""):
    head = b"GET /healthz HTTP/1.1\r\nHost: test\r\n" + extra_headers
    if body:
        head += b"Content-Length: %d\r\n" % len(body)
    return head + b"\r\n" + body


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self, conn):
        sock, stream = conn
        for _ in range(3):
            sock.sendall(healthz())
            status, headers, body = read_response(stream)
            assert status == 200 and b'"ok"' in body
            assert "connection" not in headers  # the server keeps it open

    def test_connection_close_request_is_answered_then_closed(self, conn):
        sock, stream = conn
        sock.sendall(healthz())
        assert read_response(stream)[0] == 200
        sock.sendall(healthz(b"Connection: close\r\n"))
        status, headers, _ = read_response(stream)
        assert status == 200 and headers["connection"] == "close"
        assert stream.read() == b""  # EOF: the server closed

    def test_malformed_request_line_is_answered_with_close(self, conn):
        sock, stream = conn
        sock.sendall(b"NONSENSE\r\n\r\n")
        status, headers, body = read_response(stream)
        assert status == 400 and b"malformed request line" in body
        assert headers["connection"] == "close"
        assert stream.read() == b""

    def test_eof_between_requests_ends_only_that_connection(self, server, conn):
        sock, stream = conn
        sock.sendall(healthz())
        assert read_response(stream)[0] == 200
        sock.shutdown(socket.SHUT_WR)
        assert stream.read() == b""
        with socket.create_connection(("127.0.0.1", server.bound_port), timeout=5.0) as other:
            other.sendall(healthz())
            with other.makefile("rb") as other_stream:
                assert read_response(other_stream)[0] == 200

    def test_body_at_the_limit_is_read_and_one_byte_over_is_refused(self, conn):
        sock, stream = conn
        sock.sendall(healthz(body=b"x" * BODY_LIMIT))
        status, headers, _ = read_response(stream)
        assert status == 200 and "connection" not in headers
        # The whole body was consumed: the next request parses cleanly.
        sock.sendall(healthz())
        assert read_response(stream)[0] == 200
        sock.sendall(healthz(body=b"x" * (BODY_LIMIT + 1)))
        status, headers, _ = read_response(stream)
        assert status == 413 and headers["connection"] == "close"
        assert stream.read() == b""

    def test_one_connection_per_request_clients_still_work(self, server):
        for _ in range(3):
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.bound_port, timeout=5.0
            )
            try:
                connection.request("GET", "/healthz")
                assert connection.getresponse().status == 200
            finally:
                connection.close()
        # An HTTP/1.0 request without keep-alive gets one answer, then EOF.
        with socket.create_connection(("127.0.0.1", server.bound_port), timeout=5.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            with sock.makefile("rb") as stream:
                status, headers, _ = read_response(stream)
                assert status == 200 and headers["connection"] == "close"
                assert stream.read() == b""


class TestClaimAnswerOnTheWire:
    def test_stored_key_claim_is_the_raw_envelope_then_json_on_one_connection(self):
        daemon = build("daemon")
        with running(daemon):
            envelope = b"\x80opaque envelope bytes"
            claim = b'{"owner": "test"}'
            with socket.create_connection(("127.0.0.1", daemon.bound_port), timeout=5.0) as sock:
                with sock.makefile("rb") as stream:
                    sock.sendall(
                        b"PUT /kv/%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                        % (KEY_A.encode(), len(envelope), envelope)
                    )
                    assert read_response(stream)[0] == 200
                    for key in (KEY_A, KEY_B):
                        sock.sendall(
                            b"POST /claim/%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                            % (key.encode(), len(claim), claim)
                        )
                    status, headers, body = read_response(stream)
                    assert status == 200
                    assert headers["content-type"] == "application/octet-stream"
                    assert body == envelope  # stored bytes, not wrapped
                    status, headers, body = read_response(stream)
                    assert status == 200 and headers["content-type"] == "application/json"
                    assert b'"granted"' in body
            assert daemon.stats.claims_present == 1 and daemon.stats.hits == 1


class TestShutdownWithIdleConnections:
    def test_daemon_stops_promptly_with_a_pooled_idle_connection(self):
        daemon = build("daemon")
        with running(daemon) as thread:
            tier = SharedCacheTier(f"127.0.0.1:{daemon.bound_port}")
            assert tier.put(KEY_A, {"v": 1})  # leaves its connection pooled
            start = time.monotonic()
            daemon.request_shutdown_threadsafe()
            thread.join(timeout=2.0)
            assert not thread.is_alive(), "daemon hung on an idle connection"
            assert time.monotonic() - start < 2.0
            tier.close()

    def test_service_stops_promptly_with_an_idle_client_connection(self):
        service = build("service")
        with running(service) as thread:
            client = ServiceClient(port=service.bound_port)
            assert client.healthz()["status"] == "ok"  # connection stays open
            start = time.monotonic()
            service.request_shutdown_threadsafe()
            thread.join(timeout=2.0)
            assert not thread.is_alive(), "service hung on an idle connection"
            assert time.monotonic() - start < 2.0
            client.close()


class TestStaleConnectionRetry:
    @pytest.mark.parametrize("operation", ["get", "put", "claim"])
    def test_restarted_daemon_serves_the_pooled_tier(self, operation):
        first = build("daemon")
        with running(first):
            port = first.bound_port
            tier = SharedCacheTier(f"127.0.0.1:{port}", request_timeout_s=5.0)
            assert tier.put(KEY_A, {"v": 1})  # pools one connection
        # The pooled connection now points at a closed daemon; a new one
        # takes over the port, and the next call must reach it.
        second = build("daemon", port=port)
        with running(second):
            if operation == "get":
                assert tier.get(KEY_A) is None
                assert second.stats.gets == 1  # a served miss, not a failure
            elif operation == "put":
                assert tier.put(KEY_B, {"v": 2})
                assert second.stats.puts == 1
            else:
                assert tier.claim(KEY_B, lease_s=30.0).state == "granted"
            tier.close()

    def test_service_client_survives_a_restarted_service(self):
        first = build("service")
        with running(first):
            port = first.bound_port
            client = ServiceClient(port=port, timeout=5.0)
            assert client.healthz()["status"] == "ok"
        second = build("service", port=port)
        with running(second):
            assert client.healthz()["status"] == "ok"
            client.close()
