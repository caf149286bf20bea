"""Block-level (page-level) random sampling.

Block sampling reads whole pages and uses every tuple on them, amortising one
page read over ``b`` tuples.  Its statistical efficiency depends on how
correlated the tuples within a page are — which is exactly what the CVB
algorithm (:mod:`repro.core.adaptive`) adapts to.

:class:`BlockSampleStream` is the incremental access path CVB uses: it hands
out successive batches of previously unsampled pages, so the accumulated
sample is a uniform page sample without replacement.

All access paths optionally take a
:class:`~repro.storage.faults.RetryPolicy` (plus a
:class:`~repro.storage.faults.BudgetTracker`): transient read faults are
then retried with backoff, and permanently unreadable pages are *skipped and
replaced by fresh page draws*, so the accumulated sample stays uniform over
the readable pages.  Without a faulty file these knobs change nothing.
"""

from __future__ import annotations

import numpy as np

from .._rng import RngLike, ensure_rng
from ..core import kernels
from ..exceptions import BuildAbortedError, ParameterError, StorageError
from ..obs import metrics as _metrics
from ..storage.faults import BudgetTracker, RetryPolicy, read_pages_resilient
from ..storage.heapfile import HeapFile

__all__ = ["sample_block_ids", "sample_blocks", "BlockSampleStream"]


def sample_block_ids(
    num_pages: int,
    count: int,
    rng: RngLike = None,
    with_replacement: bool = False,
) -> np.ndarray:
    """*count* page ids drawn uniformly from ``[0, num_pages)``."""
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    if num_pages <= 0 and count > 0:
        raise ParameterError("cannot sample pages from an empty file")
    generator = ensure_rng(rng)
    if with_replacement:
        return generator.integers(0, num_pages, size=count)
    if count > num_pages:
        raise ParameterError(
            f"cannot draw {count} pages without replacement from {num_pages}"
        )
    return generator.choice(num_pages, size=count, replace=False)


def sample_blocks(
    heapfile: HeapFile,
    num_blocks: int,
    rng: RngLike = None,
    with_replacement: bool = False,
    retry: RetryPolicy | None = None,
    budget: BudgetTracker | None = None,
) -> np.ndarray:
    """All tuples from *num_blocks* uniformly sampled pages.

    With *retry*, transient faults are retried and permanently unreadable
    pages are dropped from the result (a uniform sample restricted to
    readable pages is still uniform over them); without it, faults
    propagate.
    """
    page_ids = sample_block_ids(
        heapfile.num_pages, num_blocks, rng, with_replacement
    )
    payload, _, _ = read_pages_resilient(
        heapfile, page_ids, retry=retry, budget=budget
    )
    return payload


class BlockSampleStream:
    """Incremental uniform page sampling without replacement.

    Pages are pre-shuffled once; successive :meth:`take` calls consume the
    shuffled order, so the union of all batches taken so far is always a
    uniform sample of pages.  Page reads are charged to the heap file's
    :class:`~repro.storage.iostats.IOStats` as batches are taken.

    Pass *exclude* to sample only from pages not already consumed by an
    earlier stream — the resume path of
    :meth:`repro.core.adaptive.CVBSampler.refine`.

    Pass *retry* (and optionally *budget*) to survive fault injection:
    transient faults are retried, and a permanently unreadable page is
    consumed from the shuffled order (so it is never offered again) but
    replaced by the next fresh page, keeping each batch at the requested
    size whenever readable pages remain.
    """

    def __init__(
        self,
        heapfile: HeapFile,
        rng: RngLike = None,
        exclude: np.ndarray | None = None,
        retry: RetryPolicy | None = None,
        budget: BudgetTracker | None = None,
    ):
        self._file = heapfile
        self._retry = retry
        self._budget = budget
        self._skipped: list[int] = []
        generator = ensure_rng(rng)
        if exclude is None or len(exclude) == 0:
            candidates = np.arange(heapfile.num_pages)
        else:
            mask = np.ones(heapfile.num_pages, dtype=bool)
            mask[np.asarray(exclude, dtype=np.int64)] = False
            candidates = np.flatnonzero(mask)
        self._order = candidates[generator.permutation(candidates.size)]
        self._cursor = 0

    @property
    def pages_remaining(self) -> int:
        """Pages not yet handed out."""
        return int(self._order.size - self._cursor)

    @property
    def pages_taken(self) -> int:
        """Pages consumed so far (delivered + permanently skipped)."""
        return self._cursor

    @property
    def pages_skipped(self) -> int:
        """Pages consumed but never delivered (permanently unreadable)."""
        return len(self._skipped)

    @property
    def skipped_ids(self) -> np.ndarray:
        """Ids of the permanently unreadable pages, in encounter order."""
        return np.asarray(self._skipped, dtype=np.int64)

    @property
    def exhausted(self) -> bool:
        """True when every candidate page has been consumed."""
        return self._cursor >= self._order.size

    @property
    def taken_ids(self) -> np.ndarray:
        """Page ids consumed so far, in sampling order."""
        return self._order[: self._cursor].copy()

    def _page_sizes(self, page_ids: np.ndarray) -> np.ndarray:
        """Tuple count of each page in *page_ids* (the last may be short)."""
        b = self._file.blocking_factor
        lo = page_ids * b
        return np.minimum(lo + b, self._file.num_records) - lo

    def _next_readable(self, num_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated payloads + per-page sizes of the next readable pages.

        Consumes the shuffled order; unreadable pages are recorded in
        ``skipped_ids`` and replaced by further draws, so fewer than
        *num_blocks* pages are delivered only when the order runs out.
        ``sizes[i]`` is the tuple count of the i-th delivered page, so
        callers can recover page boundaries from the flat payload.
        """
        # Each window of the shuffled order resolves in one batch read;
        # skipped pages are replaced by extending the window.  When a read
        # raises (a fault without a retry policy, or a budget abort), the
        # cursor and skip list cover exactly the pages consumed up to (and
        # including) the failing one.
        chunks = []
        sizes_parts = []
        delivered = 0
        while delivered < num_blocks and self._cursor < self._order.size:
            start = self._cursor
            end = min(start + (num_blocks - delivered), int(self._order.size))
            try:
                payload, delivered_ids, skipped = read_pages_resilient(
                    self._file,
                    self._order[start:end],
                    retry=self._retry,
                    budget=self._budget,
                )
            except (StorageError, BuildAbortedError) as exc:
                self._cursor = start + exc.pages_consumed
                self._skipped.extend(exc.skipped_ids)
                raise
            self._cursor = end
            self._skipped.extend(skipped)
            if delivered_ids.size:
                sizes_parts.append(self._page_sizes(delivered_ids))
                chunks.append(payload)
                delivered += int(delivered_ids.size)
        if not chunks:
            empty = np.asarray([], dtype=np.int64)
            return self._file.values_unaccounted()[:0], empty
        if len(chunks) == 1:
            # The common case (every page readable): no concatenate copy.
            return chunks[0], sizes_parts[0]
        return np.concatenate(chunks), np.concatenate(sizes_parts)

    def take(self, num_blocks: int) -> np.ndarray:
        """Values from the next *num_blocks* sampled (readable) pages.

        Returns fewer tuples when the file runs out of unsampled pages (the
        degenerate case where adaptive sampling has scanned the whole table,
        or fault injection has exhausted the readable pages).
        """
        if num_blocks < 0:
            raise ParameterError(
                f"num_blocks must be non-negative, got {num_blocks}"
            )
        payload, sizes = self._next_readable(num_blocks)
        _metrics.inc("repro_block_batches_total", mode="take")
        _metrics.inc("repro_block_pages_delivered_total", int(sizes.size))
        return payload

    def take_one_tuple_per_block(
        self, num_blocks: int, rng: RngLike = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Next *num_blocks* readable pages, plus one random tuple from each.

        Implements the cross-validation "twist" of Section 4.2: validate with
        a single randomly chosen tuple per sampled block (eliminating
        intra-block correlation from the validation signal) while still
        returning the full pages for the histogram merge.

        Returns ``(all_tuples, one_per_block)``.
        """
        generator = ensure_rng(rng)
        all_tuples, sizes = self._next_readable(num_blocks)
        _metrics.inc("repro_block_batches_total", mode="one_per_block")
        _metrics.inc("repro_block_pages_delivered_total", int(sizes.size))
        if sizes.size == 0:
            return all_tuples, np.asarray([])
        # One uniform intra-page index per (non-empty) delivered page; the
        # kernel draws them in page order, so the RNG stream advances
        # exactly as the historical per-page loop did.
        starts = np.cumsum(sizes) - sizes
        nonempty = sizes > 0
        draws = kernels.one_per_block_draws(generator, sizes[nonempty])
        representatives = all_tuples[starts[nonempty] + draws]
        return all_tuples, representatives
