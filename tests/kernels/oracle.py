"""Reference oracles for the eight public kernels of :mod:`repro.core.kernels`.

Each oracle is the straightforward per-record (or sort-everything)
implementation the vectorized kernel replaced, with the same validation,
exceptions and messages as the production function.  The differential
suite patches them into ``repro.core.kernels`` (see
:func:`tests.kernels.conftest.implementation`) and requires production to
match them bit-for-bit: arrays, dtypes, exceptions, and RNG consumption.

:class:`OracleHeapFile` does the same for storage: it reads a page batch
one ``read_page`` at a time, so production's one-gather ``read_pages`` (and
every sampler built on it) is compared against a per-page loop.
Fault-injecting files need no oracle: production already reads them one
page at a time.
"""

from __future__ import annotations

import numpy as np

from repro.core import kernels
from repro.exceptions import EmptyDataError, ParameterError
from repro.storage import HeapFile


def gather_pages(
    values: np.ndarray, page_ids: np.ndarray, blocking_factor: int
) -> np.ndarray:
    """Slice one page at a time and concatenate."""
    n = values.size
    chunks = []
    for pid in page_ids:
        lo = int(pid) * blocking_factor
        hi = min(lo + blocking_factor, n)
        chunks.append(values[lo:hi])
    if not chunks:
        return values[:0]
    return np.concatenate(chunks)


def equi_height_separators_unsorted(values: np.ndarray, k: int) -> np.ndarray:
    """Full sort, then index the separator positions."""
    values = np.asarray(values)
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if values.size == 0:
        raise EmptyDataError("cannot build a histogram over an empty value set")
    positions = kernels.equi_height_separator_positions(values.size, k)
    return np.sort(values)[positions]


def separator_counts(
    values: np.ndarray, separators: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Bincount each value's bucket, then sort for the eq counts and extrema."""
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot count an empty value set")
    separators = np.asarray(separators)
    counts = np.bincount(
        np.searchsorted(separators, values, side="left"),
        minlength=separators.size + 1,
    ).astype(np.int64)
    sorted_values = np.sort(values)
    eq = kernels.eq_counts_sorted(sorted_values, separators)
    return counts, eq, float(sorted_values[0]), float(sorted_values[-1])


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stable sort of the concatenation."""
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    return np.sort(np.concatenate([a, b]), kind="stable")


def ensure_sorted(values: np.ndarray) -> np.ndarray:
    """Always sort."""
    return np.sort(np.asarray(values))


def run_lengths(values: np.ndarray) -> np.ndarray:
    """Sort and count each distinct value, whatever the input order."""
    return np.unique(np.asarray(values), return_counts=True)[1]


def unique_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` with its counts."""
    return np.unique(np.asarray(values), return_counts=True)


def one_per_block_draws(
    generator: np.random.Generator, sizes: np.ndarray
) -> np.ndarray:
    """One ``integers`` call per block, in block order."""
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and sizes.min() <= 0:
        raise ParameterError("block sizes must be positive to draw from")
    draws = [int(generator.integers(0, int(size))) for size in sizes]
    return np.asarray(draws, dtype=np.int64)


#: Public kernel name -> oracle, patched over ``repro.core.kernels``.
ORACLES = {
    "gather_pages": gather_pages,
    "equi_height_separators_unsorted": equi_height_separators_unsorted,
    "separator_counts": separator_counts,
    "merge_sorted": merge_sorted,
    "ensure_sorted": ensure_sorted,
    "run_lengths": run_lengths,
    "unique_counts": unique_counts,
    "one_per_block_draws": one_per_block_draws,
}


class OracleHeapFile(HeapFile):
    """A plain heap file read one page at a time.

    ``read_pages`` (the one batch read behind the block samplers and
    ``read_pages_resilient``) concatenates one ``read_page`` per id, and
    ``scan`` charges one ``record_read`` per page.
    """

    def read_pages(self, page_ids) -> np.ndarray:
        """One :meth:`HeapFile.read_page` per id, concatenated."""
        chunks = [self.read_page(int(pid)) for pid in page_ids]
        if not chunks:
            return self.values_unaccounted()[:0]
        return np.concatenate(chunks)

    def scan(self) -> np.ndarray:
        """Full scan charged page by page."""
        for page_id in range(self.num_pages):
            self.iostats.record_read(page_id)
        return self.values_unaccounted()
