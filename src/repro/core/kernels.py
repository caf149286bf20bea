"""Vectorized hot-path kernels.

The sampling → sort → separator-extraction → error-metric pipeline is where
every figure and bench scenario spends its time.  This module holds those
inner loops as numpy-batched **kernels**, one implementation each:

- :func:`gather_pages` — materialise many page payloads at once (the batched
  page-draw behind :meth:`~repro.storage.heapfile.HeapFile.read_pages` and
  :class:`~repro.sampling.block_sampler.BlockSampleStream`);
- :func:`equi_height_separators_unsorted` — separator extraction from an
  *unsorted* column (Section 2.1's positions, Section 5's duplicate
  handling): an ``O(n)`` sortedness probe skips the sort outright,
  ``np.partition`` selects the order statistic in the regime where
  selection beats numpy's SIMD sort, and the sort is the fallback;
- :func:`separator_counts` — bucket counts, per-separator equal-value
  counts and extrema of a column against fixed separators, counting
  through run-boundary ``searchsorted`` diffs on the sorted column (the
  probe again skips the sort whenever the caller's column already is);
- :func:`merge_sorted` — the batched CVB increment step: fold a fresh
  sorted increment into the accumulated sorted sample;
- :func:`ensure_sorted` — sorted view of a sample or column, skipping the
  sort when the input is already ordered (the CVB accumulated sample and
  generated datasets always are);
- :func:`run_lengths` — per-value counts of any array, the
  ``np.unique(..., return_counts=True)`` counts as run lengths of its
  :func:`ensure_sorted` view, so sorted input is never sorted again
  (frequency profiles, self-join density, distinct counts);
- :func:`unique_counts` — the ``np.unique(..., return_counts=True)`` pair
  of distinct values and counts, the first value of each
  :func:`run_lengths` run (the clustered layouts, the compressed and
  MaxDiff histograms, exact join sizes);
- :func:`one_per_block_draws` — the per-block representative draws of the
  Section 4.2 validation twist, batched through one ``Generator.integers``
  call.

Each kernel is checked bit-for-bit against a straightforward per-record
reference implementation (``tests/kernels/oracle.py``): same output arrays,
same dtypes, same exceptions on degenerate input, and — for
:func:`one_per_block_draws` — the same number of draws consumed from the
same RNG stream.

This module sits at the bottom of the stack on purpose: it imports nothing
but numpy and the exception types, so storage, sampling, core and engine
can all call in without cycles.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyDataError, ParameterError

__all__ = [
    "gather_pages",
    "equi_height_separator_positions",
    "equi_height_separators_unsorted",
    "separator_counts",
    "eq_counts_sorted",
    "merge_sorted",
    "ensure_sorted",
    "run_lengths",
    "unique_counts",
    "one_per_block_draws",
]


def gather_pages(
    values: np.ndarray, page_ids: np.ndarray, blocking_factor: int
) -> np.ndarray:
    """Concatenated payloads of *page_ids* over a page-ordered *values* array.

    Pure computation — no I/O accounting: callers charge reads themselves
    (see :meth:`~repro.storage.heapfile.HeapFile.read_pages`).  Page order
    is preserved and duplicate ids are gathered again, exactly like reading
    the pages one at a time.  Every id must name a page of *values*.
    """
    ids = np.asarray(page_ids, dtype=np.int64)
    lo = ids * blocking_factor
    if lo.size == 0:
        return values[:0]
    sizes = np.minimum(lo + blocking_factor, values.size) - lo
    if sizes.min() == blocking_factor:
        # All pages full: index the rows of a (pages, b) view, one block
        # copy per page and no index array.  Splitting the one axis of a
        # 1-D array is a view whatever its stride, so nothing is copied.
        full_pages = values.size // blocking_factor
        rows = values[: full_pages * blocking_factor].reshape(
            full_pages, blocking_factor
        )
        return rows[ids].reshape(-1)
    # General case (a short trailing page in the set): repeat each page's
    # base offset over its size and add the running intra-page rank.
    total = int(sizes.sum())
    starts = np.cumsum(sizes) - sizes
    index = np.repeat(lo - starts, sizes) + np.arange(total, dtype=np.int64)
    return values[index]


def equi_height_separator_positions(m: int, k: int) -> np.ndarray:
    """0-based order-statistic positions of the ``k-1`` separators.

    Separator ``s_j`` is the value at (1-based) position ``ceil(j*m/k)``
    (Section 2.1); shared by :func:`equi_height_separators_unsorted` and
    :func:`repro.core.histogram.equi_height_separators`.
    """
    positions = np.ceil(np.arange(1, k) * m / k).astype(np.int64)
    return np.clip(positions - 1, 0, m - 1)


def _is_sorted(values: np.ndarray) -> bool:
    """``O(n)`` non-decreasing probe; NaNs fail it (comparisons are false)."""
    return values.size < 2 or bool(np.all(values[1:] >= values[:-1]))


def equi_height_separators_unsorted(values: np.ndarray, k: int) -> np.ndarray:
    """The ``k-1`` equi-height separators of an **unsorted** value array.

    Same order statistics as
    :func:`repro.core.histogram.equi_height_separators` applied to
    ``np.sort(values)``, without requiring the caller to sort.  An ``O(n)``
    sortedness probe reads the separators straight out of an
    already-ordered column.  For a single separator, ``np.partition``
    introselect beats a full sort.  Beyond that, numpy's SIMD-accelerated
    ``np.sort`` is empirically faster than multi-position introselect at
    every measured ``(n, k)``, so the sort is used there.
    """
    values = np.asarray(values)
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if values.size == 0:
        raise EmptyDataError("cannot build a histogram over an empty value set")
    positions = equi_height_separator_positions(values.size, k)
    if positions.size == 0:
        return values[:0]
    if _is_sorted(values):
        return values[positions]
    if positions.size == 1:
        return np.partition(values, positions)[positions]
    return np.sort(values)[positions]


def eq_counts_sorted(
    sorted_values: np.ndarray, separators: np.ndarray
) -> np.ndarray:
    """Count of *sorted_values* equal to each separator; repeats carry zero.

    For a run of repeated separators only the first carries the equal count
    (the SQL Server EQ_ROWS convention, Section 5).  Shared by
    :func:`separator_counts` and the sorted-input histogram constructor.
    """
    lo = np.searchsorted(sorted_values, separators, side="left")
    hi = np.searchsorted(sorted_values, separators, side="right")
    eq = (hi - lo).astype(np.int64)
    if separators.size > 1:
        repeat = np.concatenate(([False], separators[1:] == separators[:-1]))
        eq[repeat] = 0
    return eq


def separator_counts(
    values: np.ndarray, separators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(bucket_counts, eq_counts, min, max)`` of unsorted *values*.

    The counting step of
    :meth:`~repro.core.histogram.EquiHeightHistogram.from_separators`:
    partition *values* by the (non-decreasing) *separators*, count the
    values exactly equal to each separator (first of a repeated run carries
    the count), and report the observed extrema.

    Counts through run boundaries on the sorted column: the sortedness
    probe skips the sort whenever the caller's column is already ordered
    (the Figure 5/7 ground-truth recounts and the CVB accumulated sample
    always are), collapsing the kernel to ``O(k log n)``.  Bucket ``j``
    holds ``#(v <= s_j) - #(v <= s_{j-1})``, the ``(s_{j-1}, s_j]``
    convention.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot count an empty value set")
    separators = np.asarray(separators)
    sorted_values = values if _is_sorted(values) else np.sort(values)
    upper = np.searchsorted(sorted_values, separators, side="right")
    bounds = np.concatenate(([0], upper, [sorted_values.size]))
    counts = np.diff(bounds).astype(np.int64)
    eq = eq_counts_sorted(sorted_values, separators)
    return counts, eq, float(sorted_values[0]), float(sorted_values[-1])


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two **sorted** arrays into one sorted array.

    The CVB accumulation step (Section 7.1, extension 2): the accumulated
    sample and the fresh sorted increment become one sorted sample.  When
    either side is empty the other is returned as-is.

    A stable sort of ``[a, b]`` keeps ``a``'s copies of a tied value
    first, as a merge does.  For float64 and int64 NumPy's stable sort is
    timsort, which finds the two presorted runs and merges them in linear
    time.  The concatenation is sorted in place, so the result is the only
    array allocated.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return merged


def ensure_sorted(values: np.ndarray) -> np.ndarray:
    """*values* in non-decreasing order (a copy only when sorting is needed).

    An ``O(n)`` sortedness probe skips the ``O(n log n)`` sort for input
    that is already ordered, such as the CVB accumulated sample or a
    generated dataset.  NaNs make the probe fail, falling back to the
    sort.  Callers must treat the result as read-only: it is the input
    itself when that is already sorted.
    """
    values = np.asarray(values)
    if _is_sorted(values):
        return values
    return np.sort(values)


def run_lengths(values: np.ndarray) -> np.ndarray:
    """Per-value counts of *values* in value order, as
    ``np.unique(values, return_counts=True)[1]`` returns them.

    Any order and shape: the flattened input goes through
    :func:`ensure_sorted`, so an already-ordered column is counted without
    a sort, and the counts are the lengths of its runs of equal values.
    NaNs sort last and, as in ``np.unique``, count as one value.
    """
    return _runs(ensure_sorted(np.ravel(values)))


def unique_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, counts)`` of *values*, as
    ``np.unique(values, return_counts=True)`` returns them.

    The counts are :func:`run_lengths` of the flattened input's
    :func:`ensure_sorted` view, and each distinct value is the first
    element of its run, so an already-ordered column is never sorted.
    """
    values = ensure_sorted(np.ravel(values))
    counts = _runs(values)
    firsts = np.cumsum(counts)
    firsts -= counts
    return values[firsts], counts


def _runs(sorted_values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted 1-D array.

    Run boundaries come from one boolean mask of value changes, with a
    sentinel at each end, so the lengths are one ``flatnonzero`` and one
    ``diff``.  NaNs sort last and, as in ``np.unique``, form one run.
    """
    boundary = np.empty(sorted_values.size + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundary[1:-1])
    if (
        sorted_values.dtype.kind == "f"
        and sorted_values.size
        and np.isnan(sorted_values[-1])
    ):
        first_nan = np.searchsorted(sorted_values, sorted_values[-1], side="left")
        boundary[first_nan + 1 : -1] = False
    return np.diff(np.flatnonzero(boundary))


def one_per_block_draws(
    generator: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """One uniform index draw per block, given the per-block tuple counts.

    Implements the random-representative selection of the Section 4.2
    cross-validation twist.  Every entry of *sizes* must be positive; the
    caller filters empty blocks (which draw nothing) beforehand.

    One ``Generator.integers`` call with a per-block bound array: numpy
    consumes the bit stream element-wise, so this draws exactly the values
    (and advances the stream exactly as far as) one call per block would.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size == 0:
        return np.zeros(0, dtype=np.int64)
    if sizes.min() <= 0:
        raise ParameterError("block sizes must be positive to draw from")
    return generator.integers(0, sizes, dtype=np.int64)
