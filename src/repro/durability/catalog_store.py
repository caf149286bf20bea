"""Durable catalog: atomic snapshot + CRC-checked journal, LKG recovery.

:class:`CatalogStore` persists a :class:`repro.engine.catalog.Catalog` in
a directory holding two files:

- ``catalog.snapshot.json`` — the full catalog: each entry's
  :func:`repro.engine.serialization.statistics_to_dict` form with its
  per-key version, written atomically via
  :func:`repro.durability.atomic.atomic_write_json`.
- ``catalog.journal`` — CRC-framed put/drop records
  (:mod:`repro.durability.journal`) appended on every mutation.

Every journal record carries a monotonically increasing sequence number,
and the snapshot records the last sequence it incorporates
(``last_seq``).  :meth:`CatalogStore.checkpoint` writes the snapshot
*then* truncates the journal; a crash between the two leaves stale
records behind, and recovery skips any record with ``seq <= last_seq``,
so replay is idempotent at every crash point.

Opening a store recovers to last-known-good without raising, whatever
the crash left behind:

==============================  =======================================
crash artifact                  recovery
==============================  =======================================
leftover ``*.tmp`` snapshot     removed; previous snapshot authoritative
corrupt/torn snapshot           treated as absent (journal still replays)
torn journal tail (no newline)  truncated to the last complete record
corrupt journal tail (bad CRC)  truncated to the last good record
stale journal records           skipped via ``seq <= last_seq``
==============================  =======================================

Recovery counts surface as ``repro_catalog_recoveries_total{kind}`` and
``repro_journal_replays_total``; checkpoints run under the
``durability.checkpoint`` span, opens under ``durability.recover``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..engine.catalog import Catalog
from ..engine.serialization import statistics_from_dict, statistics_to_dict
from ..exceptions import ParameterError
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from . import journal as _journal
from .atomic import atomic_write_json

__all__ = ["CatalogStore"]

_SNAPSHOT_VERSION = 1


class _DurableCatalog(Catalog):
    """A catalog whose mutations are journaled by its owning store.

    Handed to :class:`repro.engine.statistics.StatisticsManager` (and
    through it :class:`repro.engine.maintenance.AutoStatistics`) so every
    ``analyze`` lands in the journal without the engine knowing about
    durability at all.
    """

    def __init__(self, store: "CatalogStore"):
        super().__init__()
        self._store = store

    def put(self, statistics) -> int:
        """Store and journal (or replace) statistics; returns the version."""
        return self._store.put(statistics)

    def drop(self, table_name: str, column_name: str) -> None:
        """Remove and journal the removal (idempotent)."""
        self._store.drop(table_name, column_name)


class CatalogStore:
    """Snapshot+journal persistence for the statistics catalog.

    Parameters
    ----------
    directory:
        Where ``catalog.snapshot.json`` and ``catalog.journal`` live;
        created if missing.  Opening the store recovers whatever state
        the directory holds (see module docstring) — it never raises on
        crash damage.
    write_faults:
        Optional :class:`repro.storage.faults.WriteFaultPolicy`; its
        injector sees every durable operation (snapshot write, journal
        append, journal truncation) so tests can die at seeded points.
    """

    SNAPSHOT_NAME = "catalog.snapshot.json"
    JOURNAL_NAME = "catalog.journal"

    def __init__(self, directory: str | os.PathLike, write_faults=None):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._snapshot_path = self._dir / self.SNAPSHOT_NAME
        self._journal_path = self._dir / self.JOURNAL_NAME
        self._injector = (
            write_faults.injector() if write_faults is not None else None
        )
        self.catalog = _DurableCatalog(self)
        #: Held across a mutation's version bump, sequence number and
        #: journal append, so journal order is sequence order.
        self._lock = threading.Lock()
        self._seq = 0
        self.recoveries: dict[str, int] = {}
        self.replayed = 0
        self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _note_recovery(self, kind: str) -> None:
        self.recoveries[kind] = self.recoveries.get(kind, 0) + 1
        _metrics.inc("repro_catalog_recoveries_total", kind=kind)

    def _load_snapshot(self) -> int:
        """Install the snapshot if readable; returns its ``last_seq``."""
        tmp = self._snapshot_path.with_name(self._snapshot_path.name + ".tmp")
        if tmp.exists():
            # A crash died between writing the tmp file and the rename;
            # the rename never happened, so the tmp bytes are garbage.
            tmp.unlink()
            self._note_recovery("torn_snapshot")
        if not self._snapshot_path.exists():
            return 0
        try:
            payload = json.loads(self._snapshot_path.read_text())
            if payload.get("snapshot_version") != _SNAPSHOT_VERSION:
                raise ParameterError("unknown snapshot version")
            entries = payload["entries"]
            last_seq = int(payload["last_seq"])
            for entry in entries:
                # Unbound Catalog method: restores must not re-journal.
                Catalog.restore(
                    self.catalog,
                    statistics_from_dict(entry["statistics"]),
                    int(entry["version"]),
                )
            return last_seq
        except (OSError, ValueError, KeyError, TypeError, ParameterError):
            # Atomic writes should make this unreachable, but a scribbled
            # disk is exactly what last-known-good must survive: treat
            # the snapshot as absent and fall back to the journal.
            self._note_recovery("corrupt_snapshot")
            return 0

    def _recover(self) -> None:
        with _trace.span("durability.recover"):
            last_seq = self._load_snapshot()
            records, clean_bytes, tail = _journal.read_records(
                self._journal_path
            )
            if tail is not None:
                _journal.truncate_to(self._journal_path, clean_bytes)
                self._note_recovery(f"{tail}_journal")
            seen = last_seq
            replayed = 0
            for record in records:
                seq = int(record.get("seq", 0))
                seen = max(seen, seq)
                if seq <= last_seq:
                    continue  # already folded into the snapshot
                if record.get("op") == "put":
                    Catalog.restore(
                        self.catalog,
                        statistics_from_dict(record["statistics"]),
                        int(record["version"]),
                    )
                elif record.get("op") == "drop":
                    Catalog.drop(
                        self.catalog, record["table"], record["column"]
                    )
                replayed += 1
            self._seq = seen
            self.replayed = replayed
            if replayed:
                _metrics.inc("repro_journal_replays_total", replayed)

    # ------------------------------------------------------------------
    # Mutation (journaled)
    # ------------------------------------------------------------------

    def put(self, statistics) -> int:
        """Install statistics in the catalog and journal the mutation."""
        record = statistics_to_dict(statistics)
        with self._lock:
            version = Catalog.put(self.catalog, statistics)
            self._seq += 1
            _journal.append_record(
                self._journal_path,
                {
                    "seq": self._seq,
                    "op": "put",
                    "version": version,
                    "statistics": record,
                },
                injector=self._injector,
            )
        return version

    def drop(self, table_name: str, column_name: str) -> None:
        """Drop a column's statistics and journal the drop."""
        with self._lock:
            Catalog.drop(self.catalog, table_name, column_name)
            self._seq += 1
            _journal.append_record(
                self._journal_path,
                {
                    "seq": self._seq,
                    "op": "drop",
                    "table": table_name,
                    "column": column_name,
                },
                injector=self._injector,
            )

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Write an atomic snapshot, then truncate the journal.

        A crash after the snapshot rename but before the truncation is
        harmless: the leftover records all have ``seq <= last_seq`` and
        are skipped on replay.
        """
        with _trace.span("durability.checkpoint", entries=len(self.catalog)):
            payload = {
                "snapshot_version": _SNAPSHOT_VERSION,
                "last_seq": self._seq,
                "entries": [
                    {
                        "version": self.catalog.version(table, column),
                        "statistics": statistics_to_dict(
                            self.catalog.get(table, column)
                        ),
                    }
                    for table, column in self.catalog.keys()
                ],
            }
            atomic_write_json(
                self._snapshot_path,
                payload,
                kind="snapshot",
                injector=self._injector,
            )
            if self._injector is not None:
                # The truncation is a durable operation too: dying here
                # models "crash between snapshot and journal truncation".
                _, crash = self._injector.apply(b"")
                if crash:
                    self._injector.crash("journal truncation")
            if self._journal_path.exists():
                _journal.truncate_to(self._journal_path, 0)
        return self._snapshot_path
