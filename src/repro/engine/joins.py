"""System R-style join-size estimation from column statistics.

Section 6 motivates distinct-value estimation through its use "in
estimating relative error in join-selectivity estimation formulas used in
System R [28]".  This module closes that loop: given per-column statistics
(distinct counts, histograms), estimate equi-join output sizes two ways:

- :func:`system_r_join_size` — the classical containment assumption:
  ``|R join S| = |R| * |S| / max(d_R, d_S)``;
- :func:`histogram_join_size` — bucket-wise estimation by aligning the two
  columns' histograms over the intersected domain (strictly more accurate
  when the value ranges only partially overlap).

Both consume :class:`~repro.engine.statistics.ColumnStatistics`, so the
quality of the join estimate inherits directly from the quality of the
sampled statistics — the end-to-end consequence of the paper's bounds.
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..exceptions import ParameterError
from .statistics import ColumnStatistics

__all__ = [
    "system_r_join_size",
    "histogram_join_size",
    "true_join_size",
]


def system_r_join_size(
    left: ColumnStatistics, right: ColumnStatistics
) -> float:
    """Classical System R estimate: ``n_L * n_R / max(d_L, d_R)``.

    Uses each side's (sampled) distinct-count estimate; with perfect
    statistics and containment-of-value-sets this is exact for key/foreign
    -key joins.
    """
    d_left = max(1.0, left.distinct_estimate)
    d_right = max(1.0, right.distinct_estimate)
    return left.n * right.n / max(d_left, d_right)


def histogram_join_size(
    left: ColumnStatistics,
    right: ColumnStatistics,
    resolution: int | None = None,
) -> float:
    """Histogram-aligned equi-join estimate.

    The shared domain is cut into sub-intervals (by default, at every
    separator of either histogram); within each sub-interval both sides are
    assumed uniform over their estimated local distinct values, giving the
    standard per-interval estimate ``n_L(i) * n_R(i) / max(d_L(i), d_R(i))``.
    Local distinct counts are apportioned from the global estimates by
    *domain width* — distinct values spread across the value domain, unlike
    tuple mass, which piles onto hot values; mass-proportional apportionment
    would wildly overstate the distinct count inside hot intervals and
    underestimate skewed joins.
    """
    lo = max(left.histogram.min_value, right.histogram.min_value)
    hi = min(left.histogram.max_value, right.histogram.max_value)
    if lo > hi:
        return 0.0

    cuts = np.concatenate(
        (
            [lo, hi],
            left.histogram.separators,
            right.histogram.separators,
        )
    )
    cuts = np.unique(cuts[(cuts >= lo) & (cuts <= hi)])
    if resolution is not None:
        if resolution < 2:
            raise ParameterError(
                f"resolution must be at least 2, got {resolution}"
            )
        cuts = np.linspace(lo, hi, resolution)
    if cuts.size < 2:
        cuts = np.array([lo, hi], dtype=np.float64)

    left_width = max(
        left.histogram.max_value - left.histogram.min_value, 1e-12
    )
    right_width = max(
        right.histogram.max_value - right.histogram.min_value, 1e-12
    )

    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        n_l = left.histogram.estimate_leq(b) - left.histogram.estimate_lt(a)
        n_r = right.histogram.estimate_leq(b) - right.histogram.estimate_lt(a)
        n_l *= left.n / left.histogram.total
        n_r *= right.n / right.histogram.total
        if n_l <= 0 or n_r <= 0:
            continue
        width = b - a
        d_l = min(
            n_l, max(1.0, left.distinct_estimate * width / left_width)
        )
        d_r = min(
            n_r, max(1.0, right.distinct_estimate * width / right_width)
        )
        total += n_l * n_r / max(d_l, d_r)
    return total


def true_join_size(
    left_values: np.ndarray, right_values: np.ndarray
) -> int:
    """Exact equi-join output size, for evaluating the estimators."""
    left_values = np.asarray(left_values)
    right_values = np.asarray(right_values)
    lv, lc = kernels.unique_counts(left_values)
    rv, rc = kernels.unique_counts(right_values)
    common, l_idx, r_idx = np.intersect1d(
        lv, rv, assume_unique=True, return_indices=True
    )
    return int((lc[l_idx] * rc[r_idx]).sum())
