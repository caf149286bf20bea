"""Physical placement of tuples on disk pages.

Block-level sampling quality depends entirely on *which tuples share a page*
(Section 4.1 of the paper).  A layout function maps a value multiset in
domain order to the order in which records are written to the heap file:

``random``
    Tuples placed uniformly at random — the paper's scenario (a), where a
    page of ``b`` tuples is as informative as ``b`` independent record
    samples.

``sorted``
    Tuples written in value order — scenario (b), total intra-page
    correlation: one page contributes roughly one useful sample.

``partial``
    The paper's experimental middle ground (Section 7.1): for every distinct
    value, a fraction (default 20%) of its duplicates is kept as one
    contiguous run, while the remaining tuples get independent random
    positions.  This models data that is clustered "in patches".

``value_runs``
    Every distinct value's duplicates form one contiguous run, but the runs
    themselves are shuffled — extreme duplication clustering without global
    sort order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._rng import RngLike, ensure_rng
from ..core import kernels
from ..exceptions import ParameterError, UnknownLayoutError

__all__ = [
    "LAYOUT_NAMES",
    "random_layout",
    "sorted_layout",
    "partially_clustered_layout",
    "value_runs_layout",
    "apply_layout",
]

LAYOUT_NAMES = ("random", "sorted", "partial", "value_runs")


def _value_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, counts)`` of *values*, as ``np.unique`` returns them.

    Sorts only an unsorted column; each distinct value is the first
    element of its run.
    """
    sorted_values = kernels.ensure_sorted(values.ravel())
    counts = kernels.run_lengths(sorted_values)
    return sorted_values[np.cumsum(counts) - counts], counts


def random_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Uniformly random tuple placement (scenario (a))."""
    values = np.asarray(values)
    generator = ensure_rng(rng)
    return values[generator.permutation(values.size)]


def sorted_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Value-ordered placement (scenario (b): fully correlated pages)."""
    return np.sort(np.asarray(values))


def partially_clustered_layout(
    values: np.ndarray,
    cluster_fraction: float = 0.2,
    rng: RngLike = None,
) -> np.ndarray:
    """The paper's partially clustered layout.

    For each distinct value with multiplicity ``m``, ``round(cluster_fraction
    * m)`` copies are emitted as one contiguous run; the remaining copies are
    emitted as independent single-tuple units.  All units are then shuffled,
    reproducing the paper's construction of assigning one shared tuple-id to
    20% of each value's duplicates and random tuple-ids to the rest, then
    clustering on tuple-id.
    """
    if not 0.0 <= cluster_fraction <= 1.0:
        raise ParameterError(
            f"cluster_fraction must be in [0, 1], got {cluster_fraction}"
        )
    values = np.asarray(values)
    if values.size == 0:
        return values.copy()
    generator = ensure_rng(rng)
    unit_values, unit_lengths = _clustered_units(values, cluster_fraction)
    order = generator.permutation(unit_values.size)
    return np.repeat(unit_values[order], unit_lengths[order])


def _clustered_units(
    values: np.ndarray, cluster_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unit table ``(value, length)`` of the partially clustered layout:
    one unit per clustered run (length >= 1), runs first, then one unit per
    loose tuple.

    Built in its own frame so the per-value arrays are freed before the
    shuffle: on a 1M-value all-distinct column they are 8 MB each.
    """
    distinct, counts = _value_runs(values)
    clustered_counts = np.round(counts * cluster_fraction).astype(np.int64)
    runs = clustered_counts > 0
    counts -= clustered_counts  # the loose copies of each value
    unit_values = np.concatenate([distinct[runs], np.repeat(distinct, counts)])
    unit_lengths = np.ones(unit_values.size, dtype=np.int64)
    unit_lengths[: np.count_nonzero(runs)] = clustered_counts[runs]
    return unit_values, unit_lengths


def value_runs_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Each distinct value contiguous, runs in random order."""
    values = np.asarray(values)
    if values.size == 0:
        return values.copy()
    generator = ensure_rng(rng)
    distinct, counts = _value_runs(values)
    order = generator.permutation(distinct.size)
    return np.repeat(distinct[order], counts[order])


_LAYOUTS: dict[str, Callable] = {
    "random": random_layout,
    "sorted": sorted_layout,
    "value_runs": value_runs_layout,
}


def apply_layout(
    values: np.ndarray,
    layout: str = "random",
    rng: RngLike = None,
    cluster_fraction: float = 0.2,
) -> np.ndarray:
    """Dispatch to one of the named layouts (see :data:`LAYOUT_NAMES`)."""
    if layout == "partial":
        return partially_clustered_layout(values, cluster_fraction, rng)
    func = _LAYOUTS.get(layout)
    if func is None:
        raise UnknownLayoutError(
            f"unknown layout {layout!r}; choose one of {LAYOUT_NAMES}"
        )
    return func(values, rng)
