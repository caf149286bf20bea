"""LRU statistics cache for the serving path.

The catalog (:class:`~repro.engine.catalog.Catalog`) is the source of
truth; the cache in front of it holds the *serving* artifacts — the
:class:`~repro.core.histogram.EquiHeightHistogram` bundle plus the
O(log k) :class:`~repro.serve.bucket_index.BucketIndex` built from it —
for the hottest ``capacity`` columns.

Staleness is not re-invented here: every lookup delegates to
:meth:`~repro.engine.maintenance.AutoStatistics.ensure_fresh`, which
applies the modification-counter policy and rebuilds (single-flight per
column) when needed.  The cache then revalidates its entry against the
catalog's per-key version counter: an entry built from version ``v`` is a
*hit* while the catalog still holds ``v`` and a *refresh* once a rebuild
bumped it.

Event counters (``hits``/``misses``/``refreshes``/``evictions``) are plain
integers — deterministic under a deterministic request schedule — and are
mirrored to the ``repro_serve_cache_events_total`` metric when obs is on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .._rng import RngLike
from ..engine.maintenance import AutoStatistics
from ..engine.statistics import ColumnStatistics
from ..engine.table import Table
from ..exceptions import ParameterError
from ..obs.metrics import inc
from .bucket_index import BucketIndex

__all__ = ["CacheEntry", "StatsCache"]


@dataclass(frozen=True)
class CacheEntry:
    """One cached serving bundle: statistics + index at a catalog version."""

    statistics: ColumnStatistics
    index: BucketIndex
    version: int


class StatsCache:
    """Version-validated LRU cache of serving bundles.

    Thread-safe: the server's I/O thread and its dedicated connection
    threads look up concurrently (and the loadgen drives it from many
    client threads), so map mutations are guarded by a lock.  ANALYZE builds themselves happen *outside* this
    lock — they go through ``AutoStatistics`` (single-flight) or the
    admission controller — so a slow build never blocks unrelated hits.
    """

    def __init__(self, auto: AutoStatistics | None = None, capacity: int = 128):
        """Cache serving bundles for up to *capacity* columns (LRU beyond)."""
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.auto = auto or AutoStatistics()
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.refreshes = 0
        self.evictions = 0
        #: Optional observation hook ``listener(kind)`` — the server wires
        #: live telemetry in here (``kind="cache_hit"|"cache_miss"``).
        #: Must never raise; it is called with the cache lock held.
        self.listener = None

    # ------------------------------------------------------------------
    # Lookup path
    # ------------------------------------------------------------------

    def lookup(
        self, table: Table, column_name: str, rng: RngLike = None
    ) -> CacheEntry:
        """The current serving bundle for ``table.column_name``.

        Delegates freshness to ``AutoStatistics.ensure_fresh`` (which may
        rebuild), then revalidates the cached entry against the catalog
        version.  Raises
        :class:`~repro.exceptions.StatisticsNotFoundError` when the column
        was never analyzed — cold builds are the server's (admission
        -controlled) job, via :meth:`install`.
        """
        stats = self.auto.ensure_fresh(table, column_name, rng=rng)
        return self._admit(stats)

    def install(self, statistics: ColumnStatistics) -> CacheEntry:
        """Cache the bundle for freshly built *statistics* and return it.

        Used by the server after a cold ANALYZE (the build already went
        through admission control); also handy in tests.
        """
        return self._admit(statistics)

    def _admit(self, stats: ColumnStatistics) -> CacheEntry:
        """Revalidate/refresh the entry for *stats* and apply LRU accounting."""
        key = (stats.table_name, stats.column_name)
        version = self.auto.manager.catalog.version(*key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version == version:
                self._entries.move_to_end(key)
                self.hits += 1
                inc("repro_serve_cache_events_total", event="hit")
                if self.listener is not None:
                    self.listener("cache_hit")
                return entry
            if entry is None:
                self.misses += 1
                inc("repro_serve_cache_events_total", event="miss")
                if self.listener is not None:
                    self.listener("cache_miss")
            else:
                self.refreshes += 1
                inc("repro_serve_cache_events_total", event="refresh")
            entry = CacheEntry(
                statistics=stats, index=BucketIndex(stats.histogram),
                version=version,
            )
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                inc("repro_serve_cache_events_total", event="evict")
            return entry

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------

    def peek(self, table_name: str, column_name: str) -> CacheEntry | None:
        """The cached entry, if any, without freshness checks or LRU bumps.

        This is the degraded-serving read: when admission control sheds a
        build, the server answers from the last-known-good bundle here.
        """
        with self._lock:
            return self._entries.get((table_name, column_name))

    def __len__(self) -> int:
        """Number of cached columns."""
        with self._lock:
            return len(self._entries)

    def counters(self) -> dict[str, int]:
        """Deterministic event counters (hit/miss/refresh/evict totals)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "refreshes": self.refreshes,
                "evictions": self.evictions,
            }
