"""Durable tiers behind the result cache's in-memory LRU.

:func:`cache_tiers` turns a backend name and the locations a user gave
into the tiers a :class:`~repro.batch.cache.ResultCache` consults on a
memory miss:

* ``memory`` — no durable tier; the single-process behavior;
* ``disk`` — a live on-disk read/write tier with atomic publishes;
* ``shared`` — a networked tier speaking to ``repro cache-daemon``, which
  also arbitrates cross-process single-flight claims (optionally stacked
  behind a local disk tier).
"""

from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.batch.cache_backends.base import (
    CacheTier,
    decode_envelope,
    encode_envelope,
)
from repro.batch.cache_backends.disk import DiskCacheTier
from repro.batch.cache_backends.shared import (
    DEFAULT_LEASE_S,
    ClaimOutcome,
    SharedCacheTier,
    parse_cache_addr,
)

#: The backend names ``--cache-backend`` and ``ServiceConfig.cache_backend``
#: accept.
CACHE_BACKENDS = ("disk", "memory", "shared")


def cache_tiers(
    backend: Optional[str],
    cache_dir: Optional[Union[str, Path]],
    cache_addr: Optional[str],
) -> Tuple[str, List[CacheTier]]:
    """The backend name and its ordered durable tiers (front tier first).

    With no ``backend`` the locations pick it: an address means
    ``shared``, a directory alone ``disk``, neither ``memory``.  ``shared``
    needs an address and puts a disk tier in front of the daemon when a
    directory is given; ``disk`` needs a directory.

    Raises
    ------
    ValueError
        For an unknown name, a missing location, or a location the chosen
        backend would ignore — a misconfiguration fails at construction,
        not mid-batch, and never silently drops a tier the user asked for.
    """
    if backend is None:
        backend = (
            "shared" if cache_addr is not None
            else "disk" if cache_dir is not None
            else "memory"
        )
    if backend not in CACHE_BACKENDS:
        raise ValueError(
            f"unknown cache backend {backend!r}; known backends: {list(CACHE_BACKENDS)}"
        )
    if backend == "shared":
        if cache_addr is None:
            raise ValueError(
                "cache backend 'shared' requires a daemon address (--cache-addr)"
            )
        front = [DiskCacheTier(cache_dir)] if cache_dir is not None else []
        return backend, front + [SharedCacheTier(cache_addr)]
    if cache_addr is not None:
        raise ValueError(
            f"cache backend {backend!r} does not use a daemon address "
            "(--cache-addr); the address needs backend 'shared'"
        )
    if backend == "disk":
        if cache_dir is None:
            raise ValueError(
                "cache backend 'disk' requires a cache directory (--cache-dir)"
            )
        return backend, [DiskCacheTier(cache_dir)]
    if cache_dir is not None:
        raise ValueError(
            "cache backend 'memory' does not use a cache directory "
            "(--cache-dir); the directory needs backend 'disk' or 'shared'"
        )
    return backend, []


__all__ = [
    "CACHE_BACKENDS",
    "DEFAULT_LEASE_S",
    "CacheTier",
    "ClaimOutcome",
    "DiskCacheTier",
    "SharedCacheTier",
    "cache_tiers",
    "decode_envelope",
    "encode_envelope",
    "parse_cache_addr",
]
