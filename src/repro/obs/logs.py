"""Named stdlib loggers per subsystem behind one configuration call.

The logger taxonomy hangs off the ``repro`` root:

* ``repro.service`` — synthesis service lifecycle and job lines;
* ``repro.cachedaemon`` — daemon startup/shutdown, claims, evictions;
* ``repro.batch`` — batch engine runs and tier execution;
* ``repro.cache`` — result-cache flushes, tier degradation and
  cross-process claim negotiation;
* ``repro.verify`` — Monte-Carlo verification runs;
* ``repro.obs`` — the observability layer itself (trace exports).

:func:`get_logger` hands out children of that root; modules log freely
and stay silent until :func:`configure_logging` attaches a handler —
exactly the stdlib contract, so embedding applications can route
``repro.*`` records through their own logging setup instead.  The CLI's
``--log-level``/``--log-json`` flags call :func:`configure_logging`;
``--log-json`` swaps the human formatter for one-object-per-line JSON
(``ts``/``level``/``logger``/``message``), grep- and ingest-friendly.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO, Optional

#: The root of the taxonomy; every repository logger is a child of it.
ROOT_LOGGER = "repro"

#: ``--log-level`` choices, mapped onto the stdlib levels.
LOG_LEVELS = ("debug", "info", "warning", "error")


def get_logger(name: str) -> logging.Logger:
    """The subsystem logger ``repro.<name>`` (idempotent, stdlib-backed)."""
    if name.startswith(ROOT_LOGGER):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record: ``ts``, ``level``, ``logger``, ``message``.

    Exceptions are flattened into an ``exc`` string so every line stays a
    single parseable object.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def configure_logging(
    level: str = "warning",
    json_lines: bool = False,
    stream: Optional[IO[str]] = None,
) -> logging.Logger:
    """Attach one handler to the ``repro`` root at ``level``.

    Idempotent: handlers previously attached by this function are
    replaced, not stacked, so tests and long-lived processes can
    reconfigure freely.  Returns the configured root logger.  Records
    never propagate past ``repro`` — the host application's root logger
    stays untouched.
    """
    if level not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; choose from {', '.join(LOG_LEVELS)}"
        )
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    if json_lines:
        handler.setFormatter(JsonLineFormatter())
    else:
        formatter = logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"
        )
        formatter.converter = time.gmtime
        handler.setFormatter(formatter)
    root.addHandler(handler)
    return root
