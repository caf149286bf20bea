"""Column density — the SQL Server duplication statistic.

Section 7.1 of the paper: "Density 0.0 implies that all values in the column
are distinct, while density 1.0 implies that all values in the column are
identical."  We normalise the average duplication count ``n/d`` onto that
[0, 1] scale:

    ``density = (n/d - 1) / (n - 1)``

which is 0 when ``d = n`` (all distinct) and 1 when ``d = 1`` (all equal).
"""

from __future__ import annotations

import numpy as np

from ..core import kernels
from ..exceptions import EmptyDataError, ParameterError

__all__ = [
    "density_from_counts",
    "column_density",
    "density_from_estimate",
    "selfjoin_density",
    "selfjoin_density_from_sample",
]


def density_from_counts(n: int, distinct: int) -> float:
    """Density of a column with *n* rows and *distinct* distinct values."""
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if not 1 <= distinct <= n:
        raise ParameterError(
            f"distinct must be in [1, {n}], got {distinct}"
        )
    if n == 1:
        return 0.0
    return (n / distinct - 1.0) / (n - 1.0)


def column_density(values: np.ndarray) -> float:
    """Exact density of a value multiset."""
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot compute the density of an empty column")
    distinct = int(kernels.run_lengths(values).size)
    return density_from_counts(values.size, distinct)


def density_from_estimate(n: int, distinct_estimate: float) -> float:
    """Density computed from an estimated distinct count (clamped to valid)."""
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    clamped = min(max(distinct_estimate, 1.0), float(n))
    if n == 1:
        return 0.0
    return (n / clamped - 1.0) / (n - 1.0)


def selfjoin_density(values: np.ndarray) -> float:
    """The self-join density ``sum_v (count_v / n)^2``.

    This is the statistic SQL Server actually keeps under the name
    "density": the probability that two random tuples share a value, i.e.
    the selectivity of a self-equi-join, and the frequency-weighted average
    multiplicity divided by n.  It is 1/n for an all-distinct column and
    1 for a constant column.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyDataError("cannot compute the density of an empty column")
    counts = kernels.run_lengths(values)
    n = values.size
    return float(((counts / n) ** 2).sum())


def selfjoin_density_from_sample(sample: np.ndarray, n: int | None = None) -> float:
    """Collision estimator of the self-join density.

    The fraction of ordered pairs of *distinct* sample tuples that collide
    in value, ``sum_v c_v*(c_v - 1) / (r*(r - 1))``, unbiasedly estimates
    the probability that two distinct table tuples share a value.  A second
    moment concentrates fast — unlike the distinct *count* (Theorem 8) —
    which is why the paper could report density estimation as "extremely
    accurate whenever the CVB algorithm converges" (Section 7.1).

    When the table size *n* is supplied, the finite-population identity
    ``sum p^2 = (P[distinct pair collides]*(n-1) + 1) / n`` converts the
    estimate to ``sum_v p_v^2`` exactly; without it the raw pair-collision
    probability is returned (the two differ only at the 1/n floor).
    """
    sample = np.asarray(sample)
    if sample.size == 0:
        raise EmptyDataError("cannot estimate density from an empty sample")
    r = sample.size
    if r == 1:
        pair_collision = 1.0
    else:
        counts = kernels.run_lengths(sample)
        collisions = float((counts * (counts - 1)).sum())
        pair_collision = collisions / (r * (r - 1.0))
    if n is None:
        return pair_collision
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    return (pair_collision * (n - 1.0) + 1.0) / n
