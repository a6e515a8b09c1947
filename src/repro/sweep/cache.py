"""Content-addressed on-disk cache for sweep results.

A cached entry is addressed by two coordinates:

1. the *point key* — a stable hash of ``(runner, point)`` from
   :func:`repro.sweep.spec.point_key`, and
2. the *code fingerprint* — :func:`repro.store.code_fingerprint`, so
   any change to the simulation code invalidates all prior results
   without ever serving a stale metric.

The layout, atomic writes, corrupt-is-a-miss reads and
:meth:`ResultCache.prune` are those of :class:`repro.store.Store`.
The default cache root honours ``REPRO_SWEEP_CACHE`` and falls back
to ``~/.cache/repro-sweep``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from .. import obs
from ..store import Store
from .spec import Value, point_key

#: Environment variable overriding the default cache root.
CACHE_ENV = "REPRO_SWEEP_CACHE"

#: Schema tag of on-disk entries (bump on incompatible changes).
ENTRY_SCHEMA = "repro-sweep-entry/1"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweep``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sweep"


class ResultCache:
    """Content-addressed store of per-point sweep results.

    Args:
        root: cache directory (created lazily on first write).
        fingerprint: code fingerprint namespace; computed from the
            installed ``repro`` sources when omitted.  Tests inject
            explicit fingerprints to exercise invalidation.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        fingerprint: str | None = None,
    ) -> None:
        if root is None:
            root = default_cache_dir()
        self.store = Store(root, fingerprint)

    @property
    def fingerprint(self) -> str:
        return self.store.fingerprint

    def get(self, runner: str, point: dict[str, Value]) -> dict | None:
        """The stored entry for a point, or ``None`` on a miss."""
        key = point_key(runner, point)
        entry = self.store.get(key, ENTRY_SCHEMA, "metrics")
        if entry is not None:
            obs.add("sweep.cache.hit")
        else:
            obs.add("sweep.cache.miss")
        return entry

    def put(
        self,
        runner: str,
        point: dict[str, Value],
        metrics: dict[str, Value],
        wall_s: float,
    ) -> dict:
        """Store one result atomically and return the entry written."""
        key = point_key(runner, point)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "fingerprint": self.fingerprint,
            "runner": runner,
            "point": point,
            "metrics": metrics,
            "wall_s": wall_s,
            "created_unix": time.time(),
        }
        self.store.put(key, entry)
        obs.add("sweep.cache.store")
        return entry

    def __len__(self) -> int:
        """Entries stored under the current fingerprint."""
        return len(self.store)

    def prune(self, keep_current: bool = True) -> int:
        """Delete stale fingerprint namespaces; return how many."""
        return self.store.prune(keep_current)
