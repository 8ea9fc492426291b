"""The cache-tier protocol and the durable-entry envelope.

The :class:`~repro.batch.cache.ResultCache` always owns an in-memory LRU
front tier; behind it sit zero or more durable :class:`CacheTier`
instances, built by :func:`~repro.batch.cache_backends.cache_tiers` — lookups
walk the tiers front to back, writes go through to every tier.

Durable entries share one wire/disk format: the ``(KEY_VERSION, payload)``
pickle envelope of :func:`encode_envelope`, validated symmetrically by
:func:`decode_envelope` — an entry written by another key version (or a
truncated/corrupt byte string) decodes to a miss, never an exception, so a
stale or damaged tier degrades instead of crashing a worker.
"""

from __future__ import annotations

import abc
import pickle
from typing import Any, Optional, Set, Tuple

from repro import keys
from repro.obs.trace import span as obs_span


def encode_envelope(value: Any) -> bytes:
    """Serialize ``value`` into the versioned durable-entry envelope.

    The envelope is ``pickle((KEY_VERSION, value))`` — the same shape the
    disk tier has always written, now shared with the networked tier so a
    key-version bump invalidates every durable copy at once.
    """
    with obs_span("cache:encode", category="cache") as encode_span:
        data = pickle.dumps((keys.KEY_VERSION, value), protocol=pickle.HIGHEST_PROTOCOL)
        encode_span.set(bytes=len(data))
    return data


def decode_envelope(data: bytes) -> Tuple[bool, Any]:
    """Decode one durable entry; ``(ok, value)``.

    ``ok`` is ``False`` — never an exception — for truncated or garbage
    bytes, for pre-envelope legacy objects, and for envelopes written under
    a different :data:`repro.keys.KEY_VERSION`: a bad entry is just a miss.
    """
    with obs_span("cache:decode", category="cache", bytes=len(data)):
        try:
            envelope = pickle.loads(data)
        except Exception:  # noqa: BLE001 - any corruption is just a miss
            return False, None
    if (
        not isinstance(envelope, tuple)
        or len(envelope) != 2
        or envelope[0] != keys.KEY_VERSION
    ):
        return False, None
    return True, envelope[1]


class CacheTier(abc.ABC):
    """One durable storage level behind the in-memory LRU.

    Tiers are *soft*: every operation degrades to a miss or a no-op on
    infrastructure failure (full disk, unreachable daemon) — a cache tier
    is an optimization and must never abort a batch whose solve succeeded.
    Each tier tracks the keys it has successfully written or observed
    (:meth:`is_clean`), which is what lets the shutdown flush skip entries
    already persisted instead of rewriting the whole memory tier.
    """

    #: Stats bucket (``"disk"`` or ``"shared"``) and display name.
    kind: str = ""

    def __init__(self) -> None:
        #: Successful physical writes this tier performed (the write-counter
        #: the flush double-write regression test pins).
        self.writes = 0
        self._clean: Set[str] = set()

    # ------------------------------------------------------------------- api
    @abc.abstractmethod
    def get(self, key: str) -> Optional[Any]:
        """The decoded value for ``key``, or ``None`` on a miss."""

    @abc.abstractmethod
    def put(self, key: str, value: Any) -> bool:
        """Publish ``key``; ``True`` on success (failure is soft)."""

    @abc.abstractmethod
    def contains(self, key: str) -> bool:
        """Whether ``key`` is present, without counting as a lookup."""

    def clear(self) -> None:
        """Drop every entry this tier holds (best effort)."""

    def close(self) -> None:
        """Release any resources the tier holds (sockets, handles)."""

    def is_clean(self, key: str) -> bool:
        """Whether this process already published or observed ``key`` here.

        The shutdown flush consults this instead of stat-ing (or asking the
        network for) every entry: a key written successfully by :meth:`put`
        — or read back by :meth:`get` — is durable in this tier and must
        not be written again.
        """
        return key in self._clean

    # -------------------------------------------------------------- internals
    def _note_write(self, key: str) -> None:
        """Record one successful physical write of ``key``."""
        self.writes += 1
        self._clean.add(key)

    def _note_observed(self, key: str) -> None:
        """Record that ``key`` was seen present in this tier."""
        self._clean.add(key)

    def _forget(self, key: str) -> None:
        """Drop the clean marker of ``key`` (entry was removed or corrupt)."""
        self._clean.discard(key)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} kind={self.kind!r}>"
