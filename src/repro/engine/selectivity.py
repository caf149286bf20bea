"""Range-selectivity estimation — the optimizer-facing consumer of
histograms.

This is the application Section 2 uses to motivate the max error metric: the
optimizer answers "how many tuples match ``lo <= X <= hi``" from the
histogram alone (full interior buckets plus linear interpolation at the
boundary buckets), and the estimation error it incurs is governed by the
histogram's error metric — Theorem 1 (average/variance bounds do not help)
versus Theorem 3 (max error bound gives ``(1+f)`` of the perfect
histogram's error).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import kernels
from ..exceptions import EmptyDataError, ParameterError
from ..workloads.queries import RangeQuery, true_range_count

__all__ = [
    "RangeEstimate",
    "RangeSelectivityEstimator",
    "WorkloadAccuracy",
    "evaluate_workload",
]


@dataclass(frozen=True)
class RangeEstimate:
    """One range-query estimate with its ground truth."""

    query: RangeQuery
    estimate: float
    truth: int

    @property
    def absolute_error(self) -> float:
        """``|estimated - actual|`` in rows."""
        return abs(self.estimate - self.truth)

    def relative_error(self, floor: float = 1.0) -> float:
        """``|est - truth| / max(truth, floor)`` — the floor guards the
        meaningless-for-tiny-outputs case the paper notes."""
        return self.absolute_error / max(self.truth, floor)


class RangeSelectivityEstimator:
    """Answers range-count queries from a histogram, scaled to table size.

    Parameters
    ----------
    histogram:
        Any object with ``estimate_range(lo, hi)`` and ``total`` — the
        equi-height, compressed and equi-width histograms all qualify.
    table_rows:
        The relation size ``n``.  When the histogram summarises a sample,
        estimates are scaled by ``n / histogram.total``.
    """

    def __init__(self, histogram, table_rows: int):
        if table_rows <= 0:
            raise ParameterError(f"table_rows must be positive, got {table_rows}")
        if histogram.total <= 0:
            raise EmptyDataError("histogram summarises no tuples")
        self.histogram = histogram
        self.table_rows = int(table_rows)
        self._scale = table_rows / histogram.total

    def estimate(self, query: RangeQuery) -> float:
        """Estimated output size of *query*, in table rows."""
        return self.histogram.estimate_range(query.lo, query.hi) * self._scale

    def selectivity(self, query: RangeQuery) -> float:
        """Estimated fraction of the table matched by *query*."""
        return self.estimate(query) / self.table_rows


@dataclass(frozen=True)
class WorkloadAccuracy:
    """Aggregate accuracy of an estimator over a query workload."""

    count: int
    mean_absolute_error: float
    max_absolute_error: float
    mean_relative_error: float
    max_relative_error: float

    def summary(self) -> str:
        """One-line accuracy summary across the workload."""
        return (
            f"{self.count} queries: abs err mean={self.mean_absolute_error:.1f} "
            f"max={self.max_absolute_error:.1f}; rel err "
            f"mean={self.mean_relative_error:.3f} max={self.max_relative_error:.3f}"
        )


def evaluate_workload(
    estimator: RangeSelectivityEstimator,
    sorted_values: np.ndarray,
    queries: list[RangeQuery],
    relative_floor: float = 1.0,
) -> WorkloadAccuracy:
    """Run *queries* through the estimator and compare with exact answers.

    *sorted_values* must be the full column in sorted order (ground truth is
    computed by binary search, not through the storage layer); anything
    else — a 2-D array, an unsorted column, a NaN — raises
    :class:`~repro.exceptions.ParameterError` instead of a wrong truth.
    """
    if not queries:
        raise ParameterError("workload must contain at least one query")
    sorted_values = np.asarray(sorted_values)
    # One O(n) pass per workload; NaN fails the comparison like a descent.
    if sorted_values.ndim != 1 or not kernels._is_sorted(sorted_values):
        raise ParameterError(
            "sorted_values must be a one-dimensional, non-decreasing array "
            f"without NaN (got shape {sorted_values.shape})"
        )
    estimates = []
    for query in queries:
        truth = true_range_count(sorted_values, query)
        estimates.append(
            RangeEstimate(query=query, estimate=estimator.estimate(query), truth=truth)
        )
    abs_errors = np.array([e.absolute_error for e in estimates])
    rel_errors = np.array([e.relative_error(relative_floor) for e in estimates])
    return WorkloadAccuracy(
        count=len(estimates),
        mean_absolute_error=float(abs_errors.mean()),
        max_absolute_error=float(abs_errors.max()),
        mean_relative_error=float(rel_errors.mean()),
        max_relative_error=float(rel_errors.max()),
    )
