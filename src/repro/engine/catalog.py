"""Statistics catalog: the registry ANALYZE writes and the optimizer reads."""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from ..exceptions import StatisticsNotFoundError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .statistics import ColumnStatistics

__all__ = ["Catalog"]


class Catalog:
    """In-memory map of ``(table, column) -> ColumnStatistics``.

    Re-analyzing a column replaces the prior entry; the catalog keeps a
    monotonically increasing version per key so callers can detect refreshes.
    Writers serialise on one lock, so concurrent puts of one key get
    distinct versions; reads are lock-free dict lookups.
    """

    def __init__(self):
        self._entries: dict[tuple[str, str], "ColumnStatistics"] = {}
        self._versions: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def put(self, statistics: "ColumnStatistics") -> int:
        """Store (or replace) statistics; returns the new version number."""
        key = (statistics.table_name, statistics.column_name)
        with self._lock:
            self._entries[key] = statistics
            version = self._versions[key] = self._versions.get(key, 0) + 1
        return version

    def get(self, table_name: str, column_name: str) -> "ColumnStatistics":
        """Fetch statistics for ``table.column`` (raises when missing)."""
        key = (table_name, column_name)
        if key not in self._entries:
            raise StatisticsNotFoundError(
                f"no statistics for {table_name}.{column_name}; run analyze first"
            )
        return self._entries[key]

    def version(self, table_name: str, column_name: str) -> int:
        """How many times this column has been analyzed (0 = never)."""
        return self._versions.get((table_name, column_name), 0)

    def restore(self, statistics: "ColumnStatistics", version: int) -> None:
        """Install an entry at an explicit version (recovery path).

        Used by :class:`repro.durability.catalog_store.CatalogStore` when
        rebuilding from a snapshot or replaying journal records: unlike
        :meth:`put`, the version is *set*, not incremented, so a replayed
        record lands at exactly the version it was journaled with.
        Records at or below the current version are ignored, which makes
        replay idempotent when a crash left the journal un-truncated
        after a snapshot.
        """
        key = (statistics.table_name, statistics.column_name)
        with self._lock:
            if version <= self._versions.get(key, 0):
                return
            self._entries[key] = statistics
            self._versions[key] = version

    def drop(self, table_name: str, column_name: str) -> None:
        """Remove statistics for one column (idempotent)."""
        key = (table_name, column_name)
        self._entries.pop(key, None)

    def keys(self) -> list[tuple[str, str]]:
        """All (table, column) pairs with statistics, sorted."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries
