"""Long-running synthesis service: amortize warm-up and cache across requests.

Every CLI invocation pays the full import/warm-up cost and throws its hot
in-memory stage cache away on exit.  This package keeps both alive in one
persistent process:

* :class:`~repro.service.server.SynthesisService` — an asyncio HTTP server
  (hand-rolled on ``asyncio.start_server``, zero new dependencies) exposing
  ``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/result``,
  ``GET /healthz`` and ``GET /stats``, with a bounded worker pool driving
  the stage-granular batch engine and one long-lived result cache shared
  by every request, whose single-flight claims make *concurrent* jobs
  share in-flight stage solves, not just completed ones — and, against a
  ``shared`` cache backend, extend those claims across server replicas;
* :class:`~repro.service.cachedaemon.CacheDaemon` — the shared key-value +
  claim daemon (``repro cache-daemon``) that N replicas point their
  ``--cache-backend shared`` tier at;
* :class:`~repro.service.client.ServiceClient` — a small blocking client
  for scripts and tests;
* :mod:`~repro.service.http` / :mod:`~repro.service.state` — minimal HTTP
  framing and the job registry.

Start a server with ``python -m repro serve`` (see ``docs/cli.md``) or
embed one with::

    service = SynthesisService(ServiceConfig(port=0, cache_dir=".repro-cache"))
    asyncio.run(service.serve_forever())
"""

from repro.service.cachedaemon import CacheDaemon, CacheDaemonConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ServiceConfig, SynthesisService
from repro.service.state import JobRecord, JobRegistry

__all__ = [
    "CacheDaemon",
    "CacheDaemonConfig",
    "JobRecord",
    "JobRegistry",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SynthesisService",
]
