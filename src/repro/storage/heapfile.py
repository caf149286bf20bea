"""Heap file: the simulated on-disk table.

A :class:`HeapFile` stores one column's values in page order (the physical
layout already applied) and charges one page read per page fetched, which is
the cost unit the paper reports ("number of disk blocks sampled", Figure 4).

The backing store is a single contiguous numpy array; ``read_page`` returns a
view, so scanning or sampling a million-page file allocates almost nothing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .._rng import RngLike
from ..core import kernels
from ..exceptions import ParameterError
from .iostats import IOStats
from .layout import apply_layout
from .page import Page
from .record import RecordSpec

__all__ = ["HeapFile"]


class HeapFile:
    """A read-only heap file over one attribute column.

    Construct with :meth:`from_values`, which applies a physical layout, or
    directly from an array already in page order.
    """

    def __init__(
        self,
        laid_out_values: np.ndarray,
        blocking_factor: int,
        spec: RecordSpec | None = None,
    ):
        values = np.asarray(laid_out_values)
        if values.ndim != 1:
            raise ParameterError(
                f"heap file values must be one-dimensional, got shape {values.shape}"
            )
        if blocking_factor <= 0:
            raise ParameterError(
                f"blocking_factor must be positive, got {blocking_factor}"
            )
        self._values = values
        self._blocking_factor = int(blocking_factor)
        self._spec = spec
        self.iostats = IOStats()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        layout: str = "random",
        rng: RngLike = None,
        spec: RecordSpec | None = None,
        blocking_factor: int | None = None,
        cluster_fraction: float = 0.2,
    ) -> "HeapFile":
        """Lay out *values* and wrap them in a heap file.

        Parameters
        ----------
        values:
            The column's multiset, in any order.
        layout:
            One of :data:`repro.storage.layout.LAYOUT_NAMES`.
        spec:
            Record/page geometry; defaults to 64-byte records in 8 KB pages.
        blocking_factor:
            Overrides ``spec.blocking_factor`` when experiments need an exact
            records-per-page count.
        cluster_fraction:
            Only used by the ``partial`` layout.
        """
        if spec is None:
            spec = RecordSpec()
        if blocking_factor is None:
            blocking_factor = spec.blocking_factor
        laid_out = apply_layout(
            values, layout=layout, rng=rng, cluster_fraction=cluster_fraction
        )
        return cls(laid_out, blocking_factor=blocking_factor, spec=spec)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def num_records(self) -> int:
        """Total records stored (the paper's ``n``)."""
        return int(self._values.size)

    @property
    def blocking_factor(self) -> int:
        """Records per page (the paper's ``b``)."""
        return self._blocking_factor

    @property
    def num_pages(self) -> int:
        """Number of pages, including a possibly short last page."""
        b = self._blocking_factor
        return (self.num_records + b - 1) // b

    @property
    def spec(self) -> RecordSpec | None:
        """Record geometry, when known."""
        return self._spec

    def page_bounds(self, page_id: int) -> tuple[int, int]:
        """Half-open record-index range ``[lo, hi)`` stored on *page_id*."""
        if not 0 <= page_id < self.num_pages:
            raise ParameterError(
                f"page_id {page_id} out of range [0, {self.num_pages})"
            )
        lo = page_id * self._blocking_factor
        hi = min(lo + self._blocking_factor, self.num_records)
        return lo, hi

    # ------------------------------------------------------------------
    # Access paths (all charged to iostats)
    # ------------------------------------------------------------------

    def read_page(self, page_id: int) -> np.ndarray:
        """All values on *page_id*; costs one page read."""
        lo, hi = self.page_bounds(page_id)
        self.iostats.record_read(page_id)
        return self._values[lo:hi]

    def read_pages(self, page_ids: Sequence[int]) -> np.ndarray:
        """Concatenated values of *page_ids*, charged one read each.

        This is the block-sampling access path: page order is preserved as
        given, duplicate ids are read (and charged) again.
        """
        if len(page_ids) == 0:
            return self._values[:0]
        ids = np.asarray(page_ids, dtype=np.int64)
        bad = (ids < 0) | (ids >= self.num_pages)
        if bad.any():
            first = int(ids[bad][0])
            raise ParameterError(
                f"page_id {first} out of range [0, {self.num_pages})"
            )
        payload = kernels.gather_pages(self._values, ids, self._blocking_factor)
        self.iostats.record_reads(ids)
        return payload

    def read_record(self, record_index: int):
        """One record by global index; costs a read of its whole page.

        This is what makes record-level sampling expensive: fetching a single
        tuple still pulls a full page off disk (Section 4 of the paper).
        """
        if not 0 <= record_index < self.num_records:
            raise ParameterError(
                f"record_index {record_index} out of range [0, {self.num_records})"
            )
        page_id = record_index // self._blocking_factor
        self.iostats.record_read(page_id)
        return self._values[record_index]

    def scan(self) -> np.ndarray:
        """Full scan; costs one read per page, returns all values."""
        self.iostats.record_reads(range(self.num_pages))
        return self._values

    def iter_pages(self) -> Iterator[np.ndarray]:
        """Iterate page payloads in order, charging each page."""
        for page_id in range(self.num_pages):
            yield self.read_page(page_id)

    def materialize_page(self, page_id: int) -> Page:
        """A :class:`Page` object for *page_id* (charged as one read)."""
        payload = self.read_page(page_id)
        return Page.from_values(page_id, payload, capacity=self._blocking_factor)

    # ------------------------------------------------------------------
    # Unaccounted access (oracle / ground truth only)
    # ------------------------------------------------------------------

    def values_unaccounted(self) -> np.ndarray:
        """All values without touching the I/O counters.

        Only for ground-truth computation in experiments; library code paths
        must use :meth:`scan` / :meth:`read_page`.
        """
        return self._values

    def __repr__(self) -> str:
        return (
            f"HeapFile(records={self.num_records}, pages={self.num_pages}, "
            f"blocking_factor={self.blocking_factor})"
        )
