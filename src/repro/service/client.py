"""Small blocking client for the synthesis service (stdlib ``http.client``).

The counterpart of :mod:`repro.service.server` for scripts and tests: one
class wrapping the four endpoints plus a poll-until-done helper.  A client
keeps one keep-alive connection, used by one call at a time under a lock,
so a client object is cheap and safe to share between threads.

>>> client = ServiceClient("127.0.0.1", 8642)
>>> job_id = client.submit({"jobs": [{"assay": "PCR"}]})
>>> status = client.wait(job_id)
>>> result = client.result(job_id)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Optional

from repro.batch.cache_backends.shared import send_request
from repro.obs.trace import TRACE_HEADER, current_context, recorder


class ServiceError(RuntimeError):
    """A non-2xx response from the service, carrying the HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Blocking HTTP client bound to one service address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._connection = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        """Close the kept connection (the next call opens a new one)."""
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------- endpoints
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: liveness, job counts, cache gauges."""
        return self._request("GET", "/healthz")

    def submit(self, manifest: Any) -> str:
        """``POST /jobs`` with a batch manifest or sweep spec; the job id.

        ``manifest`` is the parsed JSON payload, exactly what the
        corresponding CLI subcommand would read from its spec file: an
        object with a ``"jobs"`` list (or a bare list) for a batch, an
        object with a ``"sweep"`` grid for a sweep.
        """
        return self._request("POST", "/jobs", body=manifest)["job_id"]

    def status(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}``: lifecycle status plus the stage breakdown."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}/result``: the full report payload of a done job.

        Raises :class:`ServiceError` (409) while the job is still queued or
        running — use :meth:`wait` first.  When this process is tracing,
        the server-side spans the payload carries (under
        ``trace.events``, present for submissions that shipped a trace
        header) are absorbed into the local recorder, so the client's
        exported trace shows the remote stages.
        """
        payload = self._request("GET", f"/jobs/{job_id}/result")
        rec = recorder()
        if rec is not None and isinstance(payload, dict):
            events = (payload.get("trace") or {}).get("events")
            if isinstance(events, list):
                rec.absorb(events)
        return payload

    def jobs(self) -> Dict[str, Any]:
        """``GET /jobs``: status payloads of every job, submission order."""
        return self._request("GET", "/jobs")

    def shutdown(self) -> Dict[str, Any]:
        """``POST /shutdown``: ask the server to drain, flush, and exit."""
        return self._request("POST", "/shutdown")

    # --------------------------------------------------------------- helpers
    def wait(
        self, job_id: str, timeout: float = 300.0, poll_interval: float = 0.1
    ) -> Dict[str, Any]:
        """Poll ``GET /jobs/{id}`` until the job reaches a terminal state.

        Returns the final status payload (``"done"`` or ``"failed"``);
        raises :class:`TimeoutError` if the job is still going after
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["status"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['status']} after {timeout} s"
                )
            time.sleep(poll_interval)

    # -------------------------------------------------------------- internals
    def _request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Dict[str, Any]:
        encoded = None
        headers = {}
        if body is not None:
            encoded = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        ctx = current_context()
        if ctx is not None:
            # Propagate the active span context; the server parents the
            # job's recorder on it, so the submission's remote work
            # shows up in this process's exported trace.
            headers[TRACE_HEADER] = ctx.serialize()
        with self._lock:
            connection = self._connection
            try:
                response = send_request(connection, method, path, encoded, headers)
                raw = response.read()
            except BaseException:
                connection.close()
                raise
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(response.status, f"unparseable response body: {exc}") from exc
        if response.status >= 400:
            message = payload.get("error") if isinstance(payload, dict) else None
            raise ServiceError(response.status, message or raw.decode("utf-8", "replace"))
        return payload
