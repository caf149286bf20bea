"""Record-level (tuple-level) random sampling.

Section 3 of the paper analyses sampling individual tuples uniformly at
random.  The analysis assumes sampling *with* replacement (binomial tails);
sampling without replacement only helps (hypergeometric concentration).
:func:`sample_records_from_file` runs record-level sampling, either way,
against the storage simulator, charging a full page read per tuple —
demonstrating why Section 4 moves to block-level sampling.
"""

from __future__ import annotations

import numpy as np

from .._rng import RngLike, ensure_rng
from ..exceptions import BuildAbortedError, ParameterError
from ..obs import metrics as _metrics
from ..storage.faults import BudgetTracker, RetryPolicy, read_record_resilient
from ..storage.heapfile import HeapFile

__all__ = [
    "sample_with_replacement",
    "sample_records_from_file",
]


def _check_sample_size(r: int) -> None:
    if r < 0:
        raise ParameterError(f"sample size must be non-negative, got {r}")


def sample_with_replacement(
    values: np.ndarray, r: int, rng: RngLike = None
) -> np.ndarray:
    """*r* uniform draws from *values*, with replacement.

    This is the sampling model of Theorems 4, 5 and 7.
    """
    _check_sample_size(r)
    values = np.asarray(values)
    if r > 0 and values.size == 0:
        raise ParameterError("cannot sample from an empty value set")
    generator = ensure_rng(rng)
    indices = generator.integers(0, values.size, size=r) if r else np.empty(0, int)
    return values[indices]


def sample_records_from_file(
    heapfile: HeapFile,
    r: int,
    rng: RngLike = None,
    with_replacement: bool = True,
    retry: RetryPolicy | None = None,
    budget: BudgetTracker | None = None,
) -> np.ndarray:
    """Record-level sampling against the storage simulator.

    Each sampled tuple is fetched through :meth:`HeapFile.read_record`, which
    charges a full page read — the cost model that motivates block-level
    sampling (start of Section 4: "scanning one tuple off the disk is not
    much faster than scanning the entire group of tuples ... in the same
    disk block").

    With *retry*, transient faults are retried with backoff, and a record on
    a permanently unreadable page is replaced by a fresh uniform draw (from
    the as-yet-untried records, in the without-replacement mode), so the
    sample stays uniform over readable records.  When fewer than *r*
    readable records exist, the sample is shorter than requested.  Without
    *retry*, storage faults propagate unchanged.
    """
    _check_sample_size(r)
    n = heapfile.num_records
    if r > 0 and n == 0:
        raise ParameterError("cannot sample from an empty heap file")
    generator = ensure_rng(rng)
    mode = "with_replacement" if with_replacement else "without_replacement"
    if retry is None and budget is None:
        if with_replacement:
            indices = generator.integers(0, n, size=r)
        else:
            if r > n:
                raise ParameterError(
                    f"cannot draw {r} records without replacement from {n}"
                )
            indices = generator.choice(n, size=r, replace=False)
        # Fast path: no fault policy configured, nothing to route around.
        sample = np.asarray(
            [heapfile.read_record(int(i)) for i in indices]  # repro: noqa[FLT001]
        )
        _metrics.inc("repro_record_samples_total", sample.size, mode=mode)
        return sample
    if not with_replacement and r > n:
        raise ParameterError(
            f"cannot draw {r} records without replacement from {n}"
        )
    sample = _sample_records_resilient(
        heapfile, r, generator, with_replacement, retry, budget
    )
    _metrics.inc("repro_record_samples_total", sample.size, mode=mode)
    return sample


def _sample_records_resilient(
    heapfile: HeapFile,
    r: int,
    generator: np.random.Generator,
    with_replacement: bool,
    retry: RetryPolicy | None,
    budget: BudgetTracker | None,
) -> np.ndarray:
    """Skip-and-redraw record sampling (see :func:`sample_records_from_file`).

    Records on unreadable pages are remembered so the redraw loop stops once
    every remaining candidate is known-lost instead of spinning forever.
    """
    b = heapfile.blocking_factor
    lost_pages: set[int] = set()
    tried: set[int] = set()  # without-replacement: indices already consumed
    out: list = []
    while len(out) < r:
        if not with_replacement and len(tried) >= heapfile.num_records:
            break  # every record was tried; the rest were unreadable
        if with_replacement and len(lost_pages) * b >= heapfile.num_records:
            break  # every page is known lost
        index = int(generator.integers(0, heapfile.num_records))
        if not with_replacement:
            if index in tried:
                continue
            tried.add(index)
        if index // b in lost_pages:
            continue
        value = read_record_resilient(heapfile, index, retry=retry, budget=budget)
        if value is None:
            lost_pages.add(index // b)
            continue
        out.append(value)
    return np.asarray(out)
