"""Compressed histograms — the Section 5 extension.

A compressed histogram separates values whose multiplicity exceeds the ideal
bucket size ``n/k`` into dedicated *singleton* buckets (value, exact count)
and builds an equi-height histogram over the remaining values with the
remaining buckets.  This sidesteps the duplicated-separator problem of plain
equi-height histograms under heavy skew: the hot values are represented
exactly, and the residual distribution is mild enough for Definition 1's max
error to be well-defined again.

The paper defers compressed histograms to the full version; the structure
follows the standard construction of Poosala et al. [26] that the paper
references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EmptyDataError, ParameterError
from . import kernels
from .histogram import EquiHeightHistogram, _column

__all__ = ["SingletonBucket", "CompressedHistogram"]


@dataclass(frozen=True)
class SingletonBucket:
    """An exactly counted high-frequency value."""

    value: float
    count: int


class CompressedHistogram:
    """High-frequency singletons plus an equi-height remainder.

    Build with :meth:`from_values`; ``k`` counts total buckets, singleton and
    equi-height alike, so a compressed histogram occupies the same catalog
    budget as a plain k-histogram.
    """

    def __init__(
        self,
        singletons: list[SingletonBucket],
        remainder: EquiHeightHistogram | None,
        total: int,
    ):
        if total < 0:
            raise ParameterError(f"total must be non-negative, got {total}")
        accounted = sum(s.count for s in singletons)
        if remainder is not None:
            accounted += remainder.total
        if accounted != total:
            raise ParameterError(
                f"bucket contents ({accounted}) do not sum to total ({total})"
            )
        self._singletons = sorted(singletons, key=lambda s: s.value)
        self._remainder = remainder
        self._total = int(total)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls, values: np.ndarray, k: int, threshold_factor: float = 1.0
    ) -> "CompressedHistogram":
        """Build a compressed k-histogram for *values*.

        A value becomes a singleton bucket when its multiplicity exceeds
        ``threshold_factor * n/k``.  At most ``k-1`` singletons are kept
        (most frequent first) so at least one bucket remains for the
        residual equi-height histogram whenever residual values exist.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        if threshold_factor <= 0:
            raise ParameterError(
                f"threshold_factor must be positive, got {threshold_factor}"
            )
        # Read-only from here on: an already-sorted column is the caller's.
        values = kernels.ensure_sorted(_column(values))
        n = values.size
        if n == 0:
            raise EmptyDataError("cannot build a histogram over an empty value set")

        distinct, counts = kernels.unique_counts(values)
        threshold = threshold_factor * n / k
        hot_mask = counts > threshold
        hot_order = np.argsort(-counts[hot_mask], kind="stable")
        hot_values = distinct[hot_mask][hot_order][: k - 1]
        hot_counts = counts[hot_mask][hot_order][: k - 1]

        singletons = [
            SingletonBucket(float(v), int(c))
            for v, c in zip(hot_values, hot_counts)
        ]

        residual_mask = ~np.isin(values, hot_values)
        residual = values[residual_mask]
        remainder_buckets = k - len(singletons)
        if residual.size and remainder_buckets > 0:
            remainder = EquiHeightHistogram.from_sorted_values(
                residual, remainder_buckets
            )
        else:
            remainder = None
        return cls(singletons, remainder, total=n)

    @classmethod
    def from_sample(
        cls,
        sample: np.ndarray,
        n: int,
        k: int,
        threshold_factor: float = 1.0,
    ) -> "CompressedHistogram":
        """Approximate compressed histogram from a random sample.

        Singleton counts are scaled up by ``n / |sample|`` so range estimates
        refer to the full relation.
        """
        sample = np.asarray(sample)
        if sample.size == 0:
            raise EmptyDataError("cannot build a histogram from an empty sample")
        if n < sample.size:
            raise ParameterError(
                f"n={n} smaller than the sample ({sample.size})"
            )
        base = cls.from_values(sample, k, threshold_factor)
        scale = n / sample.size
        singletons = [
            SingletonBucket(s.value, int(round(s.count * scale)))
            for s in base._singletons
        ]
        remainder = base._remainder
        if remainder is not None:
            scaled_counts = np.round(remainder.counts * scale).astype(np.int64)
            scaled_eq = np.round(remainder.eq_counts * scale).astype(np.int64)
            remainder = EquiHeightHistogram(
                remainder.separators,
                scaled_counts,
                remainder.min_value,
                remainder.max_value,
                eq_counts=np.minimum(scaled_eq, scaled_counts[:-1]),
            )
        total = sum(s.count for s in singletons)
        if remainder is not None:
            total += remainder.total
        return cls(singletons, remainder, total=total)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def singletons(self) -> list[SingletonBucket]:
        """The high-frequency buckets, sorted by value."""
        return list(self._singletons)

    @property
    def remainder(self) -> EquiHeightHistogram | None:
        """The equi-height histogram over non-singleton values."""
        return self._remainder

    @property
    def total(self) -> int:
        """Total number of summarised tuples."""
        return self._total

    @property
    def k(self) -> int:
        """Total bucket budget consumed."""
        remainder_k = self._remainder.k if self._remainder is not None else 0
        return len(self._singletons) + remainder_k

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------

    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated count of values in ``[lo, hi]``.

        Singletons inside the range contribute their exact counts; the
        remainder histogram contributes its interpolated estimate.
        """
        if lo > hi:
            raise ParameterError(f"need lo <= hi, got [{lo}, {hi}]")
        estimate = sum(
            s.count for s in self._singletons if lo <= s.value <= hi
        )
        if self._remainder is not None:
            estimate += self._remainder.estimate_range(lo, hi)
        return float(estimate)

    def estimate_equality(self, value: float) -> float:
        """Estimated count of tuples equal to *value*.

        Exact for singleton values; otherwise the remainder bucket's count
        spread uniformly over the distinct values it is assumed to hold.
        """
        for s in self._singletons:
            if s.value == value:
                return float(s.count)
        if self._remainder is None:
            return 0.0
        j = self._remainder.bucket_index(value)
        buckets = self._remainder.buckets()
        bucket = buckets[j]
        width = max(bucket.width, 1.0)
        return bucket.count / width

    def __repr__(self) -> str:
        return (
            f"CompressedHistogram(singletons={len(self._singletons)}, "
            f"remainder_k={self._remainder.k if self._remainder else 0}, "
            f"total={self._total})"
        )
