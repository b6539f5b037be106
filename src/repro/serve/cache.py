"""The epoch-validated release cache: the service's one read cache.

Readers of an :class:`~repro.serve.AnonymizerService` receive immutable
:class:`~repro.core.partition.Release` objects stamped with the service
epoch they reflect — never the live tree.  The :class:`ReleaseCache`
keys releases by the full release recipe — ``(k, strategy, True,
constraint)`` — and validates every lookup against the current epoch.
Constraints are keyed by *identity* (the callable object itself
participates in the key, which doubles as the "constraint fingerprint":
two requests share a cache line iff they pass the very same constraint
object, and holding the object in the key keeps the identity stable).
Invalidation is epoch-based: writers only bump an integer; a stale entry
is dropped at the next lookup that trips over it, and every ``put``
sweeps entries older than the incoming release's epoch so keys that are
never re-requested (e.g. churned constraint identities) cannot pin dead
``AnonymizedTable``s forever.  Beyond :data:`MAX_ENTRIES` recipes, the
oldest-inserted entries are evicted.  A cached release carries its
:class:`~repro.query.engine.QueryEngine`, built the first time that
release is queried and dropped with it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.partition import Release
from repro.obs import OBS

if TYPE_CHECKING:
    from repro.core.partition import AnonymizedTable
    from repro.query.engine import QueryEngine

#: A cache key: (k, strategy, True, constraint-or-None).  The third slot is
#: always ``True`` (every release is compacted); it stays until the next
#: change to the benchmark harness, which reads releases by this key.
CacheKey = tuple[int, str, bool, Hashable]

#: How many release recipes the cache holds at once.
MAX_ENTRIES = 64


@dataclass
class CacheStats:
    """Monotonic hit/miss/invalidation counters (mirrored into repro.obs)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0


@dataclass(eq=False)
class _Entry:
    """One cached release and, once it has been queried, its engine."""

    release: Release
    engine: QueryEngine | None = None


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

    def __init__(self) -> None:
        self._entries: dict[CacheKey, _Entry] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: CacheKey, epoch: int) -> Release | None:
        """The release cached for ``key`` at ``epoch``; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.release.epoch == epoch:
                self.stats.hits += 1
                return entry.release
            self.stats.misses += 1
            if entry is not None:
                # Lazy invalidation: a write bumped the epoch since this
                # release was published.
                del self._entries[key]
                self.stats.invalidations += 1
                if OBS.enabled:
                    OBS.count("serve.cache_invalidations")
            return None

    def peek(self, key: CacheKey, epoch: int) -> Release | None:
        """:meth:`get` without counting: the read was counted once already."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or entry.release.epoch != epoch:
            return None
        return entry.release

    def put(self, key: CacheKey, release: Release) -> None:
        with self._lock:
            stale = [
                existing_key
                for existing_key, entry in self._entries.items()
                if entry.release.epoch < release.epoch
            ]
            for existing_key in stale:
                del self._entries[existing_key]
            self._entries[key] = _Entry(release)
            # Dict preserves insertion order: drop oldest-inserted entries
            # first until the bound holds.
            evicted = len(stale)
            while len(self._entries) > MAX_ENTRIES:
                del self._entries[next(iter(self._entries))]
                evicted += 1
            self.stats.invalidations += evicted
            if evicted and OBS.enabled:
                OBS.count("serve.cache_invalidations", evicted)

    def query_engine(
        self,
        key: CacheKey,
        release: Release,
        build: Callable[[AnonymizedTable], QueryEngine],
    ) -> QueryEngine:
        """The engine cached with this very ``release``, built on first use.

        ``build`` runs outside the lock (two racing first queries may both
        build; the last engine stays).  A release no longer cached gets an
        engine that is not kept.
        """
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or entry.release is not release:
            return build(release.table)
        engine = entry.engine
        if engine is None:
            engine = entry.engine = build(release.table)
        elif OBS.enabled:
            OBS.count("query.engine_cache_hits")
        return engine

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
