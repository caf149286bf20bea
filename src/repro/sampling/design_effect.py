"""Design effect: quantifying Section 4.1's "effective sampling rate".

The paper's scenario analysis says a sampled page is worth anywhere between
``b`` independent tuples (uncorrelated pages, scenario a) and ~1 tuple
(fully correlated pages, scenario b).  Survey sampling has the standard
quantitative form of this statement: under cluster sampling with clusters
of size ``b`` and *intraclass correlation* ``rho``, the variance of
estimates is inflated by the **design effect**

    ``deff = 1 + (b - 1) * rho``

so a block sample of ``r`` tuples is only worth ``r / deff`` independent
ones.  This module estimates ``rho`` from a pilot sample of pages (rank-
based, so it is distribution-free like the rest of the paper) and converts
Corollary 1's tuple budget into a corrected block budget.

The CVB algorithm never needs this — cross-validation discovers the
effective rate implicitly — but the explicit model (i) predicts what CVB
will discover, (ii) lets a planner price a layout before sampling, and
(iii) turns Figure 7's two-point comparison into a formula.
"""

from __future__ import annotations

import math

import numpy as np

from .._rng import RngLike
from ..core import bounds
from ..exceptions import EmptyDataError, ParameterError
from ..storage.heapfile import HeapFile
from .block_sampler import sample_blocks

__all__ = [
    "intraclass_correlation",
    "design_effect",
    "effective_sample_size",
    "estimate_rho_from_pilot",
    "required_blocks_with_correlation",
]


def intraclass_correlation(pages: list[np.ndarray]) -> float:
    """Rank-based intraclass correlation of values within pages.

    Computes the classic one-way ANOVA estimator on the *ranks* of the
    pooled values (ranks make it distribution-free; raw values would let a
    single outlier page dominate).  Returns a value in ``[-1, 1]``:
    0 for random placement, ~1 when pages are internally homogeneous
    (sorted or value-clustered layouts).
    """
    pages = [np.asarray(p) for p in pages if np.asarray(p).size > 0]
    if len(pages) < 2:
        raise ParameterError(
            "need at least two non-empty pages to estimate correlation"
        )
    pooled = np.concatenate(pages)
    if pooled.size < 3:
        raise EmptyDataError("too few values to estimate correlation")
    from scipy import stats  # lazily: scipy would dominate import time

    # Midranks: tied values MUST share one rank — positional tie-breaking
    # would hand duplicates page-ordered ranks and fabricate correlation on
    # heavily duplicated (Zipf) columns.
    ranks = stats.rankdata(pooled, method="average").astype(np.float64)

    grand_mean = ranks.mean()
    offset = 0
    between = 0.0
    within = 0.0
    sizes = []
    for page in pages:
        m = page.size
        chunk = ranks[offset : offset + m]
        offset += m
        sizes.append(m)
        between += m * (chunk.mean() - grand_mean) ** 2
        within += ((chunk - chunk.mean()) ** 2).sum()

    num_pages = len(pages)
    n = pooled.size
    mean_size = (n - sum(s * s for s in sizes) / n) / (num_pages - 1)
    ms_between = between / (num_pages - 1)
    ms_within = within / max(1, n - num_pages)
    denominator = ms_between + (mean_size - 1) * ms_within
    if denominator <= 0:
        return 0.0
    rho = (ms_between - ms_within) / denominator
    return float(min(1.0, max(-1.0, rho)))


def design_effect(blocking_factor: int, rho: float) -> float:
    """``deff = 1 + (b - 1) * rho``.

    Negative rho (stratified-like layouts, where each page deliberately
    spans the domain) genuinely makes a page worth *more* than ``b``
    independent tuples; the result is floored at ``1/b`` only to keep
    effective sample sizes finite.
    """
    if blocking_factor <= 0:
        raise ParameterError(
            f"blocking_factor must be positive, got {blocking_factor}"
        )
    if not -1.0 <= rho <= 1.0:
        raise ParameterError(f"rho must be in [-1, 1], got {rho}")
    return max(1.0 / blocking_factor, 1.0 + (blocking_factor - 1) * rho)


def effective_sample_size(
    tuples_sampled: int, blocking_factor: int, rho: float
) -> float:
    """How many independent tuples a block sample is actually worth."""
    if tuples_sampled < 0:
        raise ParameterError(
            f"tuples_sampled must be non-negative, got {tuples_sampled}"
        )
    return tuples_sampled / design_effect(blocking_factor, rho)


def estimate_rho_from_pilot(
    heapfile: HeapFile,
    pilot_blocks: int = 50,
    rng: RngLike = None,
) -> float:
    """Estimate the intraclass correlation from a small pilot page sample.

    Reads *pilot_blocks* uniformly sampled pages (charged to the file's I/O
    stats like any access) and runs :func:`intraclass_correlation` on them.
    """
    if pilot_blocks < 2:
        raise ParameterError(
            f"pilot_blocks must be at least 2, got {pilot_blocks}"
        )
    pilot_blocks = min(pilot_blocks, heapfile.num_pages)
    payload = sample_blocks(heapfile, pilot_blocks, rng=rng)
    b = heapfile.blocking_factor
    pages = [payload[i : i + b] for i in range(0, payload.size, b)]
    return intraclass_correlation(pages)


def required_blocks_with_correlation(
    n: int,
    k: int,
    f: float,
    gamma: float,
    blocking_factor: int,
    rho: float,
) -> int:
    """Corollary 1's budget converted to blocks under correlation *rho*.

    The tuple requirement ``r`` is inflated by the design effect before
    dividing by the blocking factor:

        ``g = ceil(r * deff / b)``

    With ``rho = 0`` this is the paper's ``g_0 = r/b``; with ``rho = 1``
    it degenerates to ``g = r`` — exactly the scenario (a)/(b) endpoints of
    Section 4.1, with scenario (c) interpolated by the measured rho.
    """
    r = bounds.corollary1_sample_size(n, k, f, gamma)
    deff = design_effect(blocking_factor, rho)
    return max(1, math.ceil(r * deff / blocking_factor))
