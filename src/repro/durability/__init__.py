"""Crash-safe persistence for statistics and sweeps.

The paper's premise is that sampling-based statistics are cheap enough to
(re)build on demand — but a statistics *service* (ROADMAP item 1) cannot
afford to lose its catalog or a multi-million-trial sweep to one dead
process.  This package is the recovery backbone:

- :mod:`repro.durability.atomic` — the single atomic write-rename helper
  every durable artifact in the repository goes through (tmp file in the
  target directory + flush + fsync + ``os.replace``).
- :mod:`repro.durability.journal` — CRC-32-framed append-only journal
  records with torn/corrupt-tail detection and truncating recovery.
- :mod:`repro.durability.catalog_store` — :class:`CatalogStore`, the
  snapshot + journal persistence of :class:`repro.engine.catalog.Catalog`
  with last-known-good recovery on open.
- :mod:`repro.durability.runjournal` — :class:`RunCheckpoint`, chunk-level
  checkpointing for :class:`repro.experiments.parallel.TrialPool` maps so
  killed sweeps resume bit-identically.

Crash injection is deterministic: durable writes consult
:class:`repro.storage.faults.WriteFaultPolicy`, which tears or corrupts
the payload at a seeded operation index and raises
:class:`repro.exceptions.SimulatedCrashError` exactly where a real
process death would interrupt the protocol.
"""

from .atomic import atomic_write_bytes, atomic_write_json, atomic_write_text
from .catalog_store import CatalogStore
from .journal import append_record, read_records
from .runjournal import RunCheckpoint

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "append_record",
    "read_records",
    "CatalogStore",
    "RunCheckpoint",
]
