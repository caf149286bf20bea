"""Physical placement of tuples on disk pages.

Block-level sampling quality depends entirely on *which tuples share a page*
(Section 4.1 of the paper).  A layout function maps a one-dimensional value
multiset in domain order to the order in which records are written to the
heap file; any other shape raises :class:`~repro.exceptions.ParameterError`.

``random``
    Tuples placed uniformly at random — the paper's scenario (a), where a
    page of ``b`` tuples is as informative as ``b`` independent record
    samples.  Allocates only its result: a copy of the column shuffled in
    place, with the same draws as gathering through a permutation.

``sorted``
    Tuples written in value order — scenario (b), total intra-page
    correlation: one page contributes roughly one useful sample.  The
    result is read-only.  An already-sorted input is returned as a
    read-only view of itself, allocating nothing, so a heap file laid out
    from it shares the caller's memory; other input is sorted into a copy.

``partial``
    The paper's experimental middle ground (Section 7.1): for every distinct
    value, a fraction (default 20%) of its duplicates is kept as one
    contiguous run, while the remaining tuples get independent random
    positions.  This models data that is clustered "in patches".  Builds a
    table of (value, run length) units, shuffles it and expands it.

``value_runs``
    Every distinct value's duplicates form one contiguous run, but the runs
    themselves are shuffled — extreme duplication clustering without global
    sort order.  Builds the per-value runs, shuffles them and expands them.
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


def _column(values: np.ndarray) -> np.ndarray:
    """*values* as an array, which every layout requires to be 1-D."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ParameterError(
            f"a layout places a one-dimensional column, got shape {values.shape}"
        )
    return values


def read_only_view(values: np.ndarray) -> np.ndarray:
    """A view of *values* that refuses writes (the array itself stays as is).

    The one rule for laid-out pages: the ``sorted`` layout and
    :class:`~repro.storage.heapfile.HeapFile` hand out only such views,
    so neither can write through to a column they share.
    """
    view = values.view()
    view.flags.writeable = False
    return view


def random_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Uniformly random tuple placement (scenario (a)).

    ``Generator.permutation`` of an array copies it and shuffles the copy
    in place.  Its Fisher–Yates pass makes the same draws whatever it
    shuffles, so the result, and the generator's state after it, equal
    ``values[generator.permutation(values.size)]`` without the int64
    index array.
    """
    values = _column(values)
    return ensure_rng(rng).permutation(values)


def sorted_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Value-ordered placement (scenario (b): fully correlated pages).

    Read-only.  Input already in order comes back as a view of itself
    (see :func:`~repro.core.kernels.ensure_sorted`), so the result shares
    its memory; anything else is sorted into a copy.
    """
    return read_only_view(kernels.ensure_sorted(_column(values)))


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
    values = _column(values)
    if values.size == 0:
        return values.copy()
    generator = ensure_rng(rng)
    unit_values, unit_lengths = _clustered_units(values, cluster_fraction)
    order = generator.permutation(unit_values.size)
    # Gather one unit array at a time, dropping each unshuffled one, so at
    # most three unit-sized arrays are live before the expansion.
    unit_values = unit_values[order]
    unit_lengths = unit_lengths[order]
    del order
    return np.repeat(unit_values, unit_lengths)


def _clustered_units(
    values: np.ndarray, cluster_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unit table ``(value, length)`` of the partially clustered layout:
    one unit per clustered run (length >= 1), runs first, then one unit per
    loose tuple.

    Built in its own frame so the per-value arrays are freed before the
    shuffle: on a 1M-value all-distinct column they are 8 MB each.
    """
    distinct, counts = kernels.unique_counts(values)
    clustered_counts = np.round(counts * cluster_fraction).astype(np.int64)
    runs = clustered_counts > 0
    counts -= clustered_counts  # the loose copies of each value
    unit_values = np.concatenate([distinct[runs], np.repeat(distinct, counts)])
    unit_lengths = np.ones(unit_values.size, dtype=np.int64)
    unit_lengths[: np.count_nonzero(runs)] = clustered_counts[runs]
    return unit_values, unit_lengths


def value_runs_layout(values: np.ndarray, rng: RngLike = None) -> np.ndarray:
    """Each distinct value contiguous, runs in random order."""
    values = _column(values)
    if values.size == 0:
        return values.copy()
    generator = ensure_rng(rng)
    distinct, counts = kernels.unique_counts(values)
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
