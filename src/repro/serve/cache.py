"""The epoch-validated release cache.

Readers of an :class:`~repro.serve.AnonymizerService` receive immutable
:class:`~repro.core.partition.Release` objects stamped with the service
epoch they reflect — never the live tree — so a concurrent writer can
mutate freely without tearing a read.

The :class:`ReleaseCache` keys releases by the full release recipe —
``(k, strategy, compacted, constraint)`` — and validates every lookup
against the current epoch.  Constraints are keyed by *identity* (the
callable object itself participates in the key, which doubles as the
"constraint fingerprint": two requests share a cache line iff they pass
the very same constraint object, and holding the object in the key keeps
the identity stable).  Invalidation is epoch-based: writers only bump an
integer; a stale entry is dropped at the next lookup that trips over it,
and every ``put`` sweeps entries older than the incoming release's epoch
so keys that are never re-requested (e.g. churned constraint identities)
cannot pin dead ``AnonymizedTable``s forever.  An optional ``max_entries``
bound evicts oldest-inserted entries beyond a fixed count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable

from repro.core.partition import Release
from repro.obs import OBS

#: A cache key: (k, strategy, compacted, constraint-or-None).
CacheKey = tuple[int, str, bool, Hashable]


@dataclass
class CacheStats:
    """Monotonic hit/miss/invalidation counters (mirrored into repro.obs)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0


class ReleaseCache:
    """A thread-safe release cache with lazy epoch invalidation.

    ``get`` returns a release only when its epoch matches the epoch the
    caller read from the service; an entry recorded at an older epoch is
    dropped on the spot (a write happened since — the release may no
    longer reflect the data).  ``put`` atomically swaps the published
    release for its key and sweeps entries staler than the release's
    epoch, so retention is bounded by the set of keys *live at the
    current epoch* rather than every key ever requested.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive when set")
        self._entries: dict[CacheKey, Release] = {}
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self.stats = CacheStats()

    def get(self, key: CacheKey, epoch: int) -> Release | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry.epoch != epoch:
                # Lazy invalidation: a write bumped the epoch since this
                # release was published.
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                if OBS.enabled:
                    OBS.count("serve.cache_invalidations")
                return None
            self.stats.hits += 1
            return entry

    def put(self, key: CacheKey, release: Release) -> None:
        with self._lock:
            stale = [
                existing_key
                for existing_key, entry in self._entries.items()
                if entry.epoch < release.epoch
            ]
            for existing_key in stale:
                del self._entries[existing_key]
                self.stats.invalidations += 1
            if stale and OBS.enabled:
                OBS.count("serve.cache_invalidations", len(stale))
            self._entries[key] = release
            if self._max_entries is not None:
                # Dict preserves insertion order: drop oldest-inserted
                # entries first until the bound holds.
                while len(self._entries) > self._max_entries:
                    oldest = next(iter(self._entries))
                    del self._entries[oldest]
                    self.stats.invalidations += 1
                    if OBS.enabled:
                        OBS.count("serve.cache_invalidations")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
