"""MaxDiff(V,A) histograms — the Ioannidis-Poosala structure [15, 26].

The paper's closing sentence of Section 1 names extending its sampling
results to "other histogram structures [15, 16]" as ongoing work; this
module provides the most prominent of those structures so the extension can
be exercised.

A MaxDiff(V,A) histogram places its ``k-1`` bucket boundaries between the
adjacent distinct values with the ``k-1`` largest differences in *area*
(frequency x spread).  Skew thus lands on bucket boundaries: a value whose
frequency jumps relative to its neighbours gets isolated, which makes
MaxDiff far more robust than equi-width and competitive with equi-height
under the uniform-spread intra-bucket assumption.

Construction here is exact over a value multiset (or a sample, like every
other histogram in the library); buckets store tuple counts *and* distinct
counts, and range estimation uses the standard continuous interpolation so
results are comparable with :class:`~repro.core.histogram.EquiHeightHistogram`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EmptyDataError, ParameterError
from . import kernels

__all__ = ["MaxDiffBucket", "MaxDiffHistogram"]


@dataclass(frozen=True)
class MaxDiffBucket:
    """One MaxDiff bucket over the closed value range ``[lo, hi]``."""

    lo: float
    hi: float
    count: int
    distinct: int

    @property
    def width(self) -> float:
        """Bucket width ``hi - lo``."""
        return self.hi - self.lo


class MaxDiffHistogram:
    """A MaxDiff(V,A) k-histogram."""

    def __init__(self, buckets: list[MaxDiffBucket]):
        if not buckets:
            raise ParameterError("a histogram needs at least one bucket")
        for a, b in zip(buckets, buckets[1:]):
            if b.lo < a.hi:
                raise ParameterError("buckets must be disjoint and ordered")
        self._buckets = list(buckets)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: np.ndarray, k: int) -> "MaxDiffHistogram":
        """Build a MaxDiff(V,A) histogram with at most *k* buckets."""
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        values = np.asarray(values)
        if values.size == 0:
            raise EmptyDataError("cannot build a histogram over an empty value set")
        distinct, counts = kernels.unique_counts(values)
        m = distinct.size
        if m == 1 or k == 1:
            return cls(
                [
                    MaxDiffBucket(
                        float(distinct[0]),
                        float(distinct[-1]),
                        int(counts.sum()),
                        int(m),
                    )
                ]
            )

        # Area of distinct value i: frequency x spread to the next value.
        # The last value gets the mean spread so it is comparable.
        spreads = np.empty(m, dtype=np.float64)
        spreads[:-1] = np.diff(distinct).astype(np.float64)
        spreads[-1] = spreads[:-1].mean() if m > 1 else 1.0
        areas = counts * spreads

        # Boundaries go after the k-1 largest adjacent area differences.
        diffs = np.abs(np.diff(areas))
        num_boundaries = min(k - 1, diffs.size)
        boundary_positions = np.sort(
            np.argpartition(-diffs, num_boundaries - 1)[:num_boundaries]
        )

        buckets = []
        start = 0
        cuts = list(boundary_positions + 1) + [m]
        for end in cuts:
            buckets.append(
                MaxDiffBucket(
                    lo=float(distinct[start]),
                    hi=float(distinct[end - 1]),
                    count=int(counts[start:end].sum()),
                    distinct=int(end - start),
                )
            )
            start = end
        return cls(buckets)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of buckets."""
        return len(self._buckets)

    @property
    def total(self) -> int:
        """Total number of values across all buckets."""
        return sum(b.count for b in self._buckets)

    def buckets(self) -> list[MaxDiffBucket]:
        """The buckets, in value order."""
        return list(self._buckets)

    @property
    def min_value(self) -> float:
        """Smallest value the histogram covers."""
        return self._buckets[0].lo

    @property
    def max_value(self) -> float:
        """Largest value the histogram covers."""
        return self._buckets[-1].hi

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimate_leq(self, value: float) -> float:
        """Estimated count of values ``<= value`` (uniform-spread model)."""
        total = 0.0
        for bucket in self._buckets:
            if value >= bucket.hi:
                total += bucket.count
            elif value < bucket.lo:
                break
            else:
                if bucket.hi > bucket.lo:
                    fraction = (value - bucket.lo) / (bucket.hi - bucket.lo)
                else:
                    fraction = 1.0
                total += bucket.count * fraction
                break
        return total

    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated count of values in the closed range ``[lo, hi]``."""
        if lo > hi:
            raise ParameterError(f"need lo <= hi, got [{lo}, {hi}]")
        # Include point mass at lo for single-value buckets.
        below_lo = 0.0
        for bucket in self._buckets:
            if lo > bucket.hi:
                below_lo += bucket.count
            elif lo > bucket.lo:
                if bucket.hi > bucket.lo:
                    below_lo += bucket.count * (lo - bucket.lo) / (
                        bucket.hi - bucket.lo
                    )
                break
            else:
                break
        return max(0.0, self.estimate_leq(hi) - below_lo)

    def estimate_distinct(self) -> int:
        """Total distinct values represented (exact when built from data)."""
        return sum(b.distinct for b in self._buckets)

    def __repr__(self) -> str:
        return f"MaxDiffHistogram(k={self.k}, total={self.total})"
