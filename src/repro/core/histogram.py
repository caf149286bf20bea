"""Equi-height (equi-depth) k-histograms.

A *k-histogram* for a value set ``V`` over a totally ordered domain is a
partition of the domain into ``k`` intervals defined by separators
``s_1 <= s_2 <= ... <= s_{k-1}``; bucket ``B_j = {v : s_{j-1} < v <= s_j}``
with ``s_0 = -inf`` and ``s_k = +inf`` (Section 2.1 of the paper).  The
histogram is *equi-height* when every bucket holds ``n/k`` values.

:class:`EquiHeightHistogram` stores the separators together with the bucket
counts of whatever value set it was last counted against, plus the observed
min/max needed for range interpolation.  Instances are immutable; operations
that change the summarised data (``recount``) return new instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import EmptyDataError, ParameterError
from . import kernels

__all__ = ["Bucket", "EquiHeightHistogram", "equi_height_separators"]


def _column(values: np.ndarray) -> np.ndarray:
    """*values* as an array, which every histogram build requires to be 1-D."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ParameterError(
            "a histogram is built over a one-dimensional column, got shape "
            f"{values.shape}"
        )
    return values


def _check_finite(values: np.ndarray) -> None:
    """Reject NaN/inf values: NaNs sort to the end and silently poison
    separators (NaN comparisons are all false, so monotonicity checks pass)."""
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise ParameterError(
            "values contain NaN or infinity; clean the column before "
            "building statistics"
        )


def _whole_counts(counts, name: str) -> np.ndarray:
    """*counts* as int64, rejecting the fractional or non-finite values that
    an int64 cast would silently truncate or wrap."""
    counts = np.asarray(counts)
    if counts.dtype.kind == "f" and not (
        np.isfinite(counts) & (counts == np.trunc(counts))
    ).all():
        raise ParameterError(f"{name} must be whole numbers")
    return np.asarray(counts, dtype=np.int64)


def equi_height_separators(sorted_values: np.ndarray, k: int) -> np.ndarray:
    """The ``k-1`` equi-height separators of a **sorted** value array.

    Separator ``s_j`` is the value at (1-based) position ``ceil(j*m/k)``.
    Under the bucket convention ``B_j = (s_{j-1}, s_j]`` this gives every
    bucket exactly ``m/k`` values (up to rounding) when the values are
    duplicate-free.  With duplicates, adjacent separators may coincide
    (Section 5 of the paper).
    """
    values = np.asarray(sorted_values)
    m = values.size
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if m == 0:
        raise EmptyDataError("cannot build a histogram over an empty value set")
    positions = kernels.equi_height_separator_positions(m, k)
    return values[positions]


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket ``(lo, hi]`` with its count.

    ``lo`` is ``-inf`` for the first bucket and ``hi`` is ``+inf`` for the
    last; :meth:`EquiHeightHistogram.buckets` substitutes the observed
    min/max for interpolation-friendly finite bounds.
    """

    lo: float
    hi: float
    count: int

    @property
    def width(self) -> float:
        """Bucket width ``hi - lo``."""
        return self.hi - self.lo


class EquiHeightHistogram:
    """An approximate equi-height k-histogram.

    Parameters
    ----------
    separators:
        Non-decreasing array of ``k-1`` separator values.
    counts:
        Bucket counts of the value set this histogram summarises.
    min_value, max_value:
        Observed extrema of that value set (used for range interpolation).
    eq_counts:
        Optional per-separator counts of summarised values exactly equal to
        each separator (SQL Server's EQ_ROWS).  Range interpolation treats
        that mass as a point at the separator instead of smearing it across
        the bucket, which matters enormously for heavily duplicated data
        (Section 5).  For a run of repeated separators, only the first
        carries the equal count.  Defaults to zeros (pure interpolation).
    """

    def __init__(
        self,
        separators: np.ndarray,
        counts: np.ndarray,
        min_value: float,
        max_value: float,
        eq_counts: np.ndarray | None = None,
    ):
        separators = np.asarray(separators, dtype=np.float64)
        counts = _whole_counts(counts, "bucket counts")
        if separators.ndim != 1 or counts.ndim != 1:
            raise ParameterError("separators and counts must be one-dimensional")
        if counts.size != separators.size + 1:
            raise ParameterError(
                f"{counts.size} counts do not match {separators.size} separators "
                f"(need k = separators + 1)"
            )
        # Phrased so that a NaN, which compares false both ways, fails it
        # too instead of making every range estimate silently wrong.
        if separators.size and not (
            -np.inf < separators[0]
            and separators[-1] < np.inf
            and (np.diff(separators) >= 0).all()
        ):
            raise ParameterError("separators must be finite and non-decreasing")
        if (counts < 0).any():
            raise ParameterError("bucket counts must be non-negative")
        min_value, max_value = float(min_value), float(max_value)
        if not (math.isfinite(min_value) and math.isfinite(max_value)):
            raise ParameterError(
                f"min_value {min_value} and max_value {max_value} must be finite"
            )
        if min_value > max_value:
            raise ParameterError(
                f"min_value {min_value} exceeds max_value {max_value}"
            )
        if eq_counts is None:
            eq_counts = np.zeros(separators.size, dtype=np.int64)
        else:
            eq_counts = _whole_counts(eq_counts, "eq_counts")
            if eq_counts.shape != separators.shape:
                raise ParameterError(
                    f"eq_counts shape {eq_counts.shape} does not match "
                    f"separators shape {separators.shape}"
                )
            if (eq_counts < 0).any():
                raise ParameterError("eq_counts must be non-negative")
        self._separators = separators
        self._separators.setflags(write=False)
        self._counts = counts
        self._counts.setflags(write=False)
        self._eq_counts = eq_counts
        self._eq_counts.setflags(write=False)
        self._min = min_value
        self._max = max_value

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: np.ndarray, k: int) -> "EquiHeightHistogram":
        """Histogram with equi-height separators computed from *values*.

        When *values* is the full column this is the *perfect* histogram;
        when it is a random sample this is the approximate histogram of
        Section 3.1 (separators at sample quantiles, counts of the sample).
        """
        values = _column(values)
        # ``ensure_sorted`` pays for at most one sort (and none at all when
        # the caller's values are already ordered — the CVB accumulated
        # sample and the ground-truth recounts always are), then the
        # separator and counting kernels ride their sorted fast paths.
        # Validation order matches :meth:`from_sorted_values` (empty before
        # k), so both constructors raise identically on degenerate input.
        if values.size == 0:
            raise EmptyDataError("cannot build a histogram over an empty value set")
        _check_finite(values)
        sorted_values = kernels.ensure_sorted(values)
        separators = kernels.equi_height_separators_unsorted(sorted_values, k)
        counts, eq_counts, vmin, vmax = kernels.separator_counts(
            sorted_values, separators
        )
        return cls(separators, counts, vmin, vmax, eq_counts=eq_counts)

    @classmethod
    def from_sorted_values(
        cls, sorted_values: np.ndarray, k: int
    ) -> "EquiHeightHistogram":
        """Same as :meth:`from_values` but skips the sort (caller's promise)."""
        values = _column(sorted_values)
        if values.size == 0:
            raise EmptyDataError("cannot build a histogram over an empty value set")
        _check_finite(values)
        separators = equi_height_separators(values, k)
        counts = cls._count_sorted(values, separators, k)
        eq_counts = kernels.eq_counts_sorted(values, separators)
        return cls(
            separators,
            counts,
            float(values[0]),
            float(values[-1]),
            eq_counts=eq_counts,
        )

    @classmethod
    def from_separators(
        cls, separators: np.ndarray, values: np.ndarray
    ) -> "EquiHeightHistogram":
        """Histogram with fixed *separators*, counted against *values*.

        This is the second step of the sampling methodology (Section 3.1):
        carry the sample-derived separators over to the full value set and
        observe the induced bucket sizes.
        """
        values = np.asarray(values)
        if values.size == 0:
            raise EmptyDataError("cannot count an empty value set")
        _check_finite(values)
        separators = np.asarray(separators, dtype=np.float64)
        counts, eq_counts, vmin, vmax = kernels.separator_counts(
            values, separators
        )
        return cls(separators, counts, vmin, vmax, eq_counts=eq_counts)

    @staticmethod
    def _count_sorted(
        sorted_values: np.ndarray, separators: np.ndarray, k: int
    ) -> np.ndarray:
        """Bucket counts of a sorted array, O(k log m)."""
        # Number of values <= s_j for each separator, then difference.
        upto = np.searchsorted(sorted_values, separators, side="right")
        edges = np.concatenate(([0], upto, [sorted_values.size]))
        return np.diff(edges).astype(np.int64)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of buckets."""
        return int(self._counts.size)

    @property
    def separators(self) -> np.ndarray:
        """The ``k-1`` separators (read-only view)."""
        return self._separators

    @property
    def counts(self) -> np.ndarray:
        """Bucket counts of the summarised value set (read-only view)."""
        return self._counts

    @property
    def eq_counts(self) -> np.ndarray:
        """Per-separator equal-to-boundary counts (read-only view)."""
        return self._eq_counts

    @property
    def total(self) -> int:
        """Total number of summarised values (``n`` or the sample size)."""
        return int(self._counts.sum())

    @property
    def min_value(self) -> float:
        """Smallest value the histogram covers."""
        return self._min

    @property
    def max_value(self) -> float:
        """Largest value the histogram covers."""
        return self._max

    @property
    def ideal_bucket_size(self) -> float:
        """``n/k`` — the bucket size of a perfect equi-height histogram."""
        return self.total / self.k

    def buckets(self) -> list[Bucket]:
        """Bucket objects with finite bounds (extrema replace +-inf)."""
        bounds = np.concatenate(
            ([self._min], self._separators, [self._max])
        )
        return [
            Bucket(float(bounds[j]), float(bounds[j + 1]), int(self._counts[j]))
            for j in range(self.k)
        ]

    # ------------------------------------------------------------------
    # Partitioning other value sets
    # ------------------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """0-based index of the bucket containing *value*."""
        return int(np.searchsorted(self._separators, value, side="left"))

    def count_values(self, values: np.ndarray) -> np.ndarray:
        """Bucket counts induced on *values* by this histogram's separators.

        This is the partitioning step of the cross-validation test
        (Definition 3): how does a fresh sample fall into the current
        buckets?
        """
        values = np.asarray(values)
        if values.size == 0:
            return np.zeros(self.k, dtype=np.int64)
        return np.bincount(
            np.searchsorted(self._separators, values, side="left"),
            minlength=self.k,
        ).astype(np.int64)

    def recount(self, values: np.ndarray) -> "EquiHeightHistogram":
        """New histogram: same separators, counts taken from *values*."""
        return EquiHeightHistogram.from_separators(self._separators, values)

    def cumulative_fraction(self, value: float) -> float:
        """Approximate fraction of summarised values ``<= value``.

        Exact at separator positions (bucket counts are exact there);
        linearly interpolated inside buckets.
        """
        return self.estimate_leq(value) / self.total

    def estimate_leq(self, value: float) -> float:
        """Estimated number of summarised values ``<= value``.

        Within the containing bucket, the mass known to sit exactly on the
        bucket's upper separator (``eq_counts``) is treated as a point; only
        the remaining range mass is linearly interpolated.  This is the
        SQL Server step-value convention, and it is what keeps range
        estimates sane when one hot value dominates a bucket (Section 5).
        """
        if value >= self._max:
            return float(self.total)
        if value < self._min:
            return 0.0
        bounds = np.concatenate(([self._min], self._separators, [self._max]))
        j = self.bucket_index(value)
        below = float(self._counts[:j].sum())
        lo, hi = float(bounds[j]), float(bounds[j + 1])
        bucket_count = float(self._counts[j])
        eq_at_hi = float(self._eq_counts[j]) if j < self.k - 1 else 0.0
        if value >= hi:
            # value equals the bucket's upper separator: whole bucket is <=.
            inside = bucket_count
        elif hi > lo:
            range_mass = max(0.0, bucket_count - eq_at_hi)
            inside = range_mass * (value - lo) / (hi - lo)
        else:
            inside = 0.0
        return below + inside

    def estimate_lt(self, value: float) -> float:
        """Estimated number of summarised values strictly ``< value``.

        Differs from :meth:`estimate_leq` only when *value* carries known
        point mass — i.e. when it coincides with a separator whose
        ``eq_counts`` entry is positive.  At other points the continuous
        interpolation cannot distinguish ``<`` from ``<=``.
        """
        if value > self._max:
            return float(self.total)
        if value <= self._min:
            return 0.0
        bounds = np.concatenate(([self._min], self._separators, [self._max]))
        j = self.bucket_index(value)
        below = float(self._counts[:j].sum())
        lo, hi = float(bounds[j]), float(bounds[j + 1])
        bucket_count = float(self._counts[j])
        eq_at_hi = float(self._eq_counts[j]) if j < self.k - 1 else 0.0
        range_mass = max(0.0, bucket_count - eq_at_hi)
        if value >= hi:
            # value sits exactly on the separator: everything in the bucket
            # except the separator's own point mass is strictly below.
            inside = range_mass
        elif hi > lo:
            inside = range_mass * (value - lo) / (hi - lo)
        else:
            inside = 0.0
        return below + inside

    def estimate_quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` of the summarised data.

        The inverse of :meth:`cumulative_fraction`: walk the buckets to the
        one holding the ``q``-th mass and interpolate linearly within it
        (point mass at the bucket's upper separator maps to the separator
        itself).  Histograms answer this for range partitioning and
        parallel-plan splitting, the other classic catalog use.
        """
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {q}")
        target = q * self.total
        bounds = np.concatenate(([self._min], self._separators, [self._max]))
        cumulative = 0.0
        for j in range(self.k):
            count = float(self._counts[j])
            if cumulative + count >= target or j == self.k - 1:
                lo, hi = float(bounds[j]), float(bounds[j + 1])
                if count <= 0 or hi <= lo:
                    return hi
                eq_at_hi = (
                    float(self._eq_counts[j]) if j < self.k - 1 else 0.0
                )
                range_mass = max(0.0, count - eq_at_hi)
                into_bucket = target - cumulative
                if into_bucket >= range_mass:
                    return hi  # lands in the separator's point mass
                if range_mass <= 0:
                    return hi
                return lo + (hi - lo) * into_bucket / range_mass
            cumulative += count
        return self._max

    def estimate_range(self, lo: float, hi: float) -> float:
        """Estimated count of values in the closed range ``[lo, hi]``.

        Implements the standard strategy of Section 2.2: full buckets
        strictly inside the range count whole, boundary buckets are linearly
        interpolated under the uniform-within-bucket assumption.  Mass known
        to sit exactly on *lo* (a separator's ``eq_counts``) is included, so
        equality probes ``estimate_range(v, v)`` on hot values answer with
        the recorded point mass rather than zero.
        """
        if lo > hi:
            raise ParameterError(f"need lo <= hi, got [{lo}, {hi}]")
        return max(0.0, self.estimate_leq(hi) - self.estimate_lt(lo))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquiHeightHistogram):
            return NotImplemented
        return (
            np.array_equal(self._separators, other._separators)
            and np.array_equal(self._counts, other._counts)
            and np.array_equal(self._eq_counts, other._eq_counts)
            and self._min == other._min
            and self._max == other._max
        )

    def __repr__(self) -> str:
        return (
            f"EquiHeightHistogram(k={self.k}, total={self.total}, "
            f"range=[{self._min:g}, {self._max:g}])"
        )
