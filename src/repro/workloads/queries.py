"""Range-query workload generation.

Section 2 of the paper measures histogram quality through the lens of range
queries ``X in [lo, hi]``.  This module provides the query object, the exact
(ground truth) evaluator, and generators for random and fixed-output-size
query workloads (the latter matching the paper's ``s = t*n/k`` analysis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import RngLike, ensure_rng
from ..exceptions import EmptyDataError, ParameterError

__all__ = [
    "RangeQuery",
    "true_range_count",
    "random_range_queries",
    "fixed_selectivity_queries",
]


@dataclass(frozen=True)
class RangeQuery:
    """A closed-interval range predicate ``lo <= X <= hi``."""

    lo: float
    hi: float

    def __post_init__(self):
        # Negated so that a NaN bound, which compares false, is rejected too.
        if not self.lo <= self.hi:
            raise ParameterError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    def selects(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of the values matched by this predicate."""
        values = np.asarray(values)
        return (values >= self.lo) & (values <= self.hi)


def true_range_count(sorted_values: np.ndarray, query: RangeQuery) -> int:
    """Exact output size of *query* against a **sorted** value array.

    Runs in O(log n) via binary search; this is the ground truth that
    histogram-based estimates are compared against.
    """
    sorted_values = np.asarray(sorted_values)
    lo_idx = int(np.searchsorted(sorted_values, query.lo, side="left"))
    hi_idx = int(np.searchsorted(sorted_values, query.hi, side="right"))
    return hi_idx - lo_idx


def random_range_queries(
    sorted_values: np.ndarray, count: int, rng: RngLike = None
) -> list[RangeQuery]:
    """*count* queries with endpoints drawn uniformly from the value domain.

    Endpoints are drawn from the observed min/max range, then ordered.  This
    exercises buckets of all widths, including empty ranges.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    sorted_values = np.asarray(sorted_values)
    if sorted_values.size == 0:
        raise EmptyDataError("cannot generate queries over an empty value set")
    generator = ensure_rng(rng)
    lo, hi = float(sorted_values[0]), float(sorted_values[-1])
    endpoints = generator.uniform(lo, hi, size=(count, 2))
    endpoints.sort(axis=1)
    return [RangeQuery(float(a), float(b)) for a, b in endpoints]


def fixed_selectivity_queries(
    sorted_values: np.ndarray,
    output_size: int,
    count: int,
    rng: RngLike = None,
) -> list[RangeQuery]:
    """*count* queries each returning exactly *output_size* tuples.

    Mirrors the paper's analysis of queries with output size ``s = t*n/k``:
    a random start offset is chosen and the query spans the values at
    positions ``[start, start + output_size)`` in sorted order.  Endpoints are
    placed on the boundary values themselves, so the true count can exceed
    *output_size* only when duplicates straddle the boundary.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    sorted_values = np.asarray(sorted_values)
    n = sorted_values.size
    if n == 0:
        raise EmptyDataError("cannot generate queries over an empty value set")
    if not 1 <= output_size <= n:
        raise ParameterError(
            f"output_size must be in [1, {n}], got {output_size}"
        )
    generator = ensure_rng(rng)
    starts = generator.integers(0, n - output_size + 1, size=count)
    queries = []
    for start in starts:
        lo = float(sorted_values[start])
        hi = float(sorted_values[start + output_size - 1])
        queries.append(RangeQuery(lo, hi))
    return queries
