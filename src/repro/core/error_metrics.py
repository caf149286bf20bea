"""Error metrics for approximate equi-height histograms.

Implements every metric the paper defines or critiques:

- ``avg_error`` — Δavg, the mean absolute bucket-size deviation (Section 2.2).
- ``var_error`` — Δvar, the root-mean-square deviation (Section 2.2).
- ``max_error`` — Δmax, the paper's conservative metric (Definition 1); a
  histogram with ``max_error <= delta`` is *δ-deviant*.
- ``max_error_fraction`` — Δmax expressed as the fraction ``f`` of the ideal
  bucket size ``n/k`` (the form used throughout Sections 3-4 and all plots).
- ``relative_deviation`` — δ_S of Definition 3: the deviation a histogram's
  separators induce on a *different* value set ``S`` (the cross-validation
  statistic).
- ``separation_error`` — the per-bucket symmetric-difference metric of
  Definition 2 (Theorem 5's δ-separation).
- ``fractional_max_error`` — f′ of Definition 4, the duplicate-safe
  generalisation of ``f``.

All count-based metrics take a bucket-count vector; convenience wrappers
taking histograms are provided where the metric is defined between objects.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmptyDataError, ParameterError
from .histogram import EquiHeightHistogram

__all__ = [
    "avg_error",
    "var_error",
    "max_error",
    "max_error_fraction",
    "is_delta_deviant",
    "relative_deviation",
    "relative_deviation_fraction",
    "separation_error",
    "is_delta_separated",
    "fractional_max_error",
    "histogram_max_error_fraction",
]


def _normalise_counts(counts: np.ndarray) -> np.ndarray:
    """Validate a bucket-count vector, preserving integer exactness.

    Integer inputs stay int64: the historical blanket cast to float64
    silently lost precision for counts above ``2**53`` and let narrow
    integer dtypes (e.g. int32 counts at 20 M-row scale) overflow *before*
    the cast could help.  Sums and ideals are then computed in int64 and
    only the final ratios become floats.  Float inputs are kept (as
    float64) because fractional counts are legitimate for merged or scaled
    histograms.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size == 0:
        raise ParameterError("counts must be a non-empty one-dimensional array")
    if counts.dtype.kind in "iu":
        if counts.dtype.kind == "u" and counts.max() > np.iinfo(np.int64).max:
            raise ParameterError(
                "bucket counts exceed the int64 range and cannot be "
                "normalised exactly"
            )
        counts = counts.astype(np.int64, copy=False)
    elif counts.dtype.kind == "f":
        counts = counts.astype(np.float64, copy=False)
    else:
        raise ParameterError(
            f"bucket counts must be numeric, got dtype {counts.dtype}"
        )
    if (counts < 0).any():
        raise ParameterError("bucket counts must be non-negative")
    return counts


def _ideal_bucket_size(counts: np.ndarray) -> float:
    """``n/k`` with the sum taken exactly.

    For integer counts the sum is accumulated in int64 and divided through
    Python's correctly rounded int/int division, so the ideal is exact to
    the last ulp even when ``n`` exceeds ``2**53`` (numpy would convert the
    sum to float64 *before* dividing and round it).  Below ``2**53`` both
    routes agree bit-for-bit, which keeps bench baselines stable.
    """
    if counts.dtype.kind == "i":
        return int(counts.sum()) / counts.size
    return counts.sum() / counts.size


def avg_error(counts: np.ndarray) -> float:
    """Δavg = sum_j |b_j - n/k| / k (Section 2.2)."""
    counts = _normalise_counts(counts)
    ideal = _ideal_bucket_size(counts)
    return float(np.abs(counts - ideal).mean())


def var_error(counts: np.ndarray) -> float:
    """Δvar = sqrt(sum_j |b_j - n/k|^2 / k) (Section 2.2)."""
    counts = _normalise_counts(counts)
    ideal = _ideal_bucket_size(counts)
    return float(np.sqrt(np.mean((counts - ideal) ** 2)))


def max_error(counts: np.ndarray) -> float:
    """Δmax = max_j |b_j - n/k| (Definition 1)."""
    counts = _normalise_counts(counts)
    ideal = _ideal_bucket_size(counts)
    return float(np.abs(counts - ideal).max())


def max_error_fraction(counts: np.ndarray) -> float:
    """Δmax as a fraction ``f`` of the ideal bucket size ``n/k``.

    This is the paper's headline quantity: ``f = Δmax / (n/k)``.
    """
    counts = _normalise_counts(counts)
    ideal = _ideal_bucket_size(counts)
    if ideal == 0:
        raise EmptyDataError("cannot compute a fractional error of zero tuples")
    return max_error(counts) / ideal


def is_delta_deviant(counts: np.ndarray, delta: float) -> bool:
    """True when the histogram is δ-deviant: every ``|b_j - n/k| <= delta``."""
    if delta < 0:
        raise ParameterError(f"delta must be non-negative, got {delta}")
    return max_error(counts) <= delta


def relative_deviation(
    histogram: EquiHeightHistogram, values: np.ndarray
) -> float:
    """δ_S of Definition 3: partition *values* by the histogram's separators
    and return ``max_j | |S_j| - |S|/k |``.

    This is the statistic the CVB algorithm thresholds against ``f*|S|/k``
    (Theorem 7) to decide whether the current histogram has converged.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot compute a deviation over an empty sample")
    induced = histogram.count_values(values)
    ideal = values.size / histogram.k
    return float(np.abs(induced - ideal).max())


def relative_deviation_fraction(
    histogram: EquiHeightHistogram, values: np.ndarray
) -> float:
    """δ_S scaled by the sample's ideal bucket size ``|S|/k``."""
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot compute a deviation over an empty sample")
    return relative_deviation(histogram, values) * histogram.k / values.size


def separation_error(
    separators_a: np.ndarray,
    separators_b: np.ndarray,
    sorted_values: np.ndarray,
) -> float:
    """δ-separation (Definition 2): the largest per-bucket symmetric
    difference between the bucketings of *sorted_values* induced by the two
    separator sequences.

    Buckets pair up positionally (``B_j`` with ``B*_j``); the symmetric
    difference is computed through cumulative counts, so the whole metric
    costs ``O(k log n)``.
    """
    separators_a = np.asarray(separators_a, dtype=np.float64)
    separators_b = np.asarray(separators_b, dtype=np.float64)
    if separators_a.size != separators_b.size:
        raise ParameterError(
            "histograms must have the same number of buckets to be compared "
            f"({separators_a.size + 1} vs {separators_b.size + 1})"
        )
    sorted_values = np.asarray(sorted_values)
    if sorted_values.size == 0:
        raise EmptyDataError("cannot compare bucketings of an empty value set")

    inf = np.inf
    bounds_a = np.concatenate(([-inf], separators_a, [inf]))
    bounds_b = np.concatenate(([-inf], separators_b, [inf]))

    def cumulative(x: np.ndarray) -> np.ndarray:
        # Number of values <= each bound; infinities handled by searchsorted.
        return np.searchsorted(sorted_values, x, side="right").astype(np.float64)

    cum_a = cumulative(bounds_a)
    cum_b = cumulative(bounds_b)
    size_a = np.diff(cum_a)
    size_b = np.diff(cum_b)
    inter_hi = cumulative(np.minimum(bounds_a[1:], bounds_b[1:]))
    inter_lo = cumulative(np.maximum(bounds_a[:-1], bounds_b[:-1]))
    intersection = np.maximum(0.0, inter_hi - inter_lo)
    sym_diff = size_a + size_b - 2.0 * intersection
    return float(sym_diff.max())


def is_delta_separated(
    separators_a: np.ndarray,
    separators_b: np.ndarray,
    sorted_values: np.ndarray,
    delta: float,
) -> bool:
    """True when the two bucketings are δ-separated (Definition 2)."""
    if delta < 0:
        raise ParameterError(f"delta must be non-negative, got {delta}")
    return separation_error(separators_a, separators_b, sorted_values) <= delta


def fractional_max_error(
    separators: np.ndarray,
    reference_values: np.ndarray,
    observed_values: np.ndarray,
) -> float:
    """f′ of Definition 4 — the duplicate-safe max error.

    With heavy duplicates, adjacent separators coincide and per-bucket counts
    become ill-defined; Definition 4 instead compares, for each *distinct*
    separator range, the fraction of the *reference* values falling in that
    range (``f_{j+1} - f_j``, computed on the sample that produced the
    separators) against the fraction of the *observed* values in the same
    range (``p_{j+1} - p_j``), normalised by the reference fraction.

    The ranges are delimited by the distinct separator values
    ``d_1 < ... < d_m`` extended with ``d_0 = -inf`` and ``d_{m+1} = +inf``,
    so the full domain is covered.  Ranges in which the reference holds no
    values are skipped (the metric is undefined there, and such ranges carry
    no histogram information).

    Both value sets must be **sorted** (the caller's promise, as for
    :meth:`~repro.core.histogram.EquiHeightHistogram.from_sorted_values`):
    the two CDFs are read at the ``m <= k - 1`` distinct separators by
    binary search, ``O(k log n)`` with no sort and no sortedness probe.
    Unsorted input gives a wrong answer, not an error.

    Parameters
    ----------
    separators:
        The histogram's separators (duplicates allowed).
    reference_values:
        The sorted value multiset that induced the separators (the
        accumulated sample ``R`` in CVB).
    observed_values:
        The sorted value multiset being checked against the histogram (the
        fresh increment ``R_i``, or the full data for ground-truth
        evaluation).
    """
    separators = np.asarray(separators, dtype=np.float64)
    reference = np.asarray(reference_values, dtype=np.float64)
    observed = np.asarray(observed_values, dtype=np.float64)
    if reference.size == 0 or observed.size == 0:
        raise EmptyDataError("fractional max error needs non-empty value sets")

    distinct = np.unique(separators)

    def fractions_leq(sorted_vals: np.ndarray) -> np.ndarray:
        counts = np.searchsorted(sorted_vals, distinct, side="right")
        fracs = counts / sorted_vals.size
        return np.concatenate(([0.0], fracs, [1.0]))

    f = fractions_leq(reference)
    p = fractions_leq(observed)
    f_ranges = np.diff(f)
    p_ranges = np.diff(p)
    populated = f_ranges > 0
    if not populated.any():
        raise EmptyDataError(
            "reference values place no mass in any separator range"
        )
    errors = np.abs(f_ranges[populated] - p_ranges[populated]) / f_ranges[populated]
    return float(errors.max())


def histogram_max_error_fraction(
    approx: EquiHeightHistogram, sorted_values: np.ndarray
) -> float:
    """End-to-end quality of *approx* against the full (sorted) data.

    Applies the approximate histogram's separators to the data and returns
    the resulting Δmax as a fraction of ``n/k`` — the quantity plotted on the
    y-axis of Figures 5 and 7.
    """
    counted = approx.recount(sorted_values)
    return max_error_fraction(counted.counts)
