"""The on-disk cache tier: live read/write, atomic publishes, soft failures.

What used to be a write-mostly appendix of :class:`ResultCache` is now a
first-class :class:`CacheTier`: reads decode the shared
``(KEY_VERSION, payload)`` envelope and treat anything else — truncated
files, garbage bytes, foreign key versions — as a miss that also unlinks
the bad entry, so a damaged cache directory converges back to health
instead of crashing workers.  Writes stage into a per-writer temp file and
``replace`` it into place, so concurrent processes sharing one directory
never expose partial files to each other.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Any, Optional, Union

from repro.batch.cache_backends.base import (
    CacheTier,
    decode_envelope,
    encode_envelope,
)


class DiskCacheTier(CacheTier):
    """Pickled ``<digest>.pkl`` entries under one directory.

    Sharding is unnecessary at the evaluation's scale; the directory is
    created eagerly so a misconfigured path fails at construction.
    """

    kind = "disk"

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        super().__init__()
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def get(self, key: str) -> Optional[Any]:
        """Read and decode one entry; corrupt or stale files are unlinked.

        Entries from another key version (including pre-envelope legacy
        files, which unpickle as a bare object) are stale by definition:
        the payload's semantics may have changed.  They and outright
        garbage degrade to a miss — and are dropped so the directory
        converges to the current version — never to an exception.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        ok, value = decode_envelope(data)
        if not ok:
            path.unlink(missing_ok=True)
            self._forget(key)
            return None
        self._note_observed(key)
        return value

    def put(self, key: str, value: Any) -> bool:
        """Atomically publish one entry; ``True`` on success.

        A unique temp name per writer: several processes may share a
        cache_dir and solve the same miss concurrently; each must publish
        atomically without trampling the other's staging file.  The disk
        tier is an optimization — a full disk or revoked permissions must
        not abort a batch whose solve already succeeded, so failures
        return ``False`` (reads treat bad entries as misses, symmetrically).
        """
        path = self._path(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_bytes(encode_envelope(value))
            tmp.replace(path)  # atomic so readers never see partial files
        except OSError:
            tmp.unlink(missing_ok=True)
            return False
        self._note_write(key)
        return True

    def contains(self, key: str) -> bool:
        """Whether an entry file exists (without decoding it)."""
        return self._path(key).exists()

    def clear(self) -> None:
        """Unlink every ``*.pkl`` entry in the directory."""
        for path in self.cache_dir.glob("*.pkl"):
            path.unlink(missing_ok=True)
        self._clean.clear()

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.pkl"
