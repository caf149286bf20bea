"""I/O accounting for the storage simulator.

The paper reports sampling cost in *disk blocks read* (e.g. Figure 4).  The
simulator's primary cost model is therefore a page-read counter: every page
fetched from a :class:`~repro.storage.heapfile.HeapFile` increments it.

The fault-injection layer (:mod:`repro.storage.faults`) adds failure
accounting on top, so cost curves stay honest under degraded builds:

- ``failed_reads`` — read attempts that raised (transient fault or checksum
  mismatch); these are *not* counted as ``page_reads``, which only tallies
  successfully delivered pages.
- ``retries`` — re-attempts issued by a retry policy after a transient fault.
- ``pages_skipped`` — pages permanently given up on (corrupt, or transient
  retries exhausted) and replaced by fresh draws.
- ``simulated_latency_s`` — simulated time spent on read latency and
  backoff delays (no real sleeping happens unless explicitly requested).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..obs import metrics as _metrics

__all__ = ["IOStats"]


@dataclass
class IOStats:
    """Mutable counter bundle attached to a heap file.

    Attributes
    ----------
    page_reads:
        Number of successful page fetches since construction or the last
        ``reset``.
    pages_touched:
        Distinct pages fetched (re-reading a cached page still counts as a
        ``page_read`` but not as a new touched page).
    failed_reads / retries / pages_skipped / simulated_latency_s:
        Fault accounting; see the module docstring.
    """

    page_reads: int = 0
    failed_reads: int = 0
    retries: int = 0
    pages_skipped: int = 0
    simulated_latency_s: float = 0.0
    _touched: set[int] = field(default_factory=set, repr=False)

    @property
    def pages_touched(self) -> int:
        """Distinct pages fetched since construction or the last reset."""
        return len(self._touched)

    def record_read(self, page_id: int) -> None:
        """Account for one successful read of *page_id*."""
        self.page_reads += 1
        self._touched.add(page_id)
        _metrics.inc("repro_read_attempts_total")
        _metrics.inc("repro_page_reads_total")

    def record_reads(self, page_ids) -> None:
        """Account for successful reads of every page in *page_ids*.

        Batched twin of :meth:`record_read`: counter values and metric
        totals end up exactly as if ``record_read`` had been called once
        per id (duplicates charge again), which keeps batched reads'
        accounting bit-identical to page-by-page reads.
        """
        count = len(page_ids)
        if count == 0:
            return
        self.page_reads += count
        # tolist() materialises Python ints at C speed; int and np.int64
        # keys hash identically, so the set contents match per-page reads.
        self._touched.update(np.asarray(page_ids).tolist())
        _metrics.inc("repro_read_attempts_total", count)
        _metrics.inc("repro_page_reads_total", count)

    def record_failed_read(self, page_id: int) -> None:
        """Account for a read attempt of *page_id* that raised."""
        self.failed_reads += 1
        _metrics.inc("repro_read_attempts_total")
        _metrics.inc("repro_failed_reads_total")

    def record_retry(self, page_id: int) -> None:
        """Account for one retry issued after a transient fault."""
        self.retries += 1
        _metrics.inc("repro_retries_total")

    def record_skip(self, page_id: int) -> None:
        """Account for permanently giving up on *page_id*."""
        self.pages_skipped += 1
        _metrics.inc("repro_pages_skipped_total")

    def record_latency(self, seconds: float) -> None:
        """Accumulate *seconds* of simulated read/backoff latency."""
        self.simulated_latency_s += seconds
        _metrics.inc("repro_simulated_latency_seconds_total", seconds)

    def reset(self) -> None:
        """Zero all counters, including the fault counters."""
        self.page_reads = 0
        self.failed_reads = 0
        self.retries = 0
        self.pages_skipped = 0
        self.simulated_latency_s = 0.0
        self._touched.clear()

    def merge(self, other: "IOStats") -> "IOStats":
        """Fold *other*'s counters into this one (returns ``self``).

        Used to aggregate per-trial accounting shipped back from
        :class:`~repro.experiments.parallel.TrialPool` workers.  Touched-page
        sets are unioned, which is only meaningful when both sides refer to
        the same file; across distinct files treat ``pages_touched`` of the
        merge as approximate.
        """
        self.page_reads += other.page_reads
        self.failed_reads += other.failed_reads
        self.retries += other.retries
        self.pages_skipped += other.pages_skipped
        self.simulated_latency_s += other.simulated_latency_s
        self._touched |= other._touched
        return self

    @contextmanager
    def delta(self) -> Iterator[dict]:
        """Capture the per-counter change across a ``with`` block.

        Yields a dict that is *filled in on exit* with ``after - before``
        for every :meth:`snapshot` counter — the logical-cost baseline uses
        this to charge exactly one measured run's I/O to its record, and
        it composes with tracing (which snapshots independently).
        ``pages_touched`` deltas count pages first touched inside the
        block.
        """
        before = self.snapshot()
        out: dict = {}
        try:
            yield out
        finally:
            after = self.snapshot()
            for key, value in after.items():
                out[key] = value - before[key]

    def snapshot(self) -> dict:
        """A plain-dict copy of the counters, for reporting."""
        return {
            "page_reads": self.page_reads,
            "pages_touched": self.pages_touched,
            "failed_reads": self.failed_reads,
            "retries": self.retries,
            "pages_skipped": self.pages_skipped,
            "simulated_latency_s": self.simulated_latency_s,
        }
