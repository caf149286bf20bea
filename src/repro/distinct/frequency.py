"""Sample frequency profiles.

Every distinct-value estimator in Section 6 is a function of the *frequency
profile* of the sample: ``f_j`` = the number of distinct values occurring
exactly ``j`` times in the sample (so ``sum_j j*f_j = r``).  The profile is
stored sparsely — real samples have a handful of occupied ``j`` levels even
when ``r`` is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import kernels
from ..exceptions import EmptyDataError

__all__ = ["FrequencyProfile"]


@dataclass(frozen=True)
class FrequencyProfile:
    """Sparse frequency-of-frequencies summary of a sample.

    Attributes
    ----------
    occurrence_counts:
        Sorted distinct occurrence levels ``j`` present in the sample.
    value_counts:
        ``f_j`` for each level, aligned with ``occurrence_counts``.
    """

    occurrence_counts: np.ndarray
    value_counts: np.ndarray

    @classmethod
    def from_sample(cls, sample: np.ndarray) -> "FrequencyProfile":
        """Compute the profile of *sample* (any order, any dtype).

        The sample is sorted at most once (not at all when it already is),
        its run lengths are the per-value counts, and a ``bincount`` of
        those counts gives ``f_j``.  NaNs count as one value, as in
        ``np.unique``.
        """
        sample = np.asarray(sample)
        if sample.size == 0:
            raise EmptyDataError("cannot profile an empty sample")
        per_value = kernels.run_lengths(sample)
        tally = np.bincount(per_value)
        levels = np.flatnonzero(tally)
        return cls(
            occurrence_counts=levels.astype(np.int64),
            value_counts=tally[levels].astype(np.int64),
        )

    @property
    def sample_size(self) -> int:
        """``r = sum_j j * f_j``."""
        return int((self.occurrence_counts * self.value_counts).sum())

    @property
    def distinct_in_sample(self) -> int:
        """``d_samp = sum_j f_j`` — distinct values observed."""
        return int(self.value_counts.sum())

    def f(self, j: int) -> int:
        """``f_j``: number of distinct values occurring exactly *j* times."""
        idx = np.searchsorted(self.occurrence_counts, j)
        if idx < self.occurrence_counts.size and self.occurrence_counts[idx] == j:
            return int(self.value_counts[idx])
        return 0

    @property
    def singletons(self) -> int:
        """``f_1`` — values seen exactly once (the hard-to-extrapolate mass)."""
        return self.f(1)

    @property
    def multiples(self) -> int:
        """``sum_{j>=2} f_j`` — values seen at least twice."""
        return self.distinct_in_sample - self.singletons

    def as_dense(self, max_level: int | None = None) -> np.ndarray:
        """Dense ``f`` array indexed by occurrence level (index 0 unused)."""
        top = int(self.occurrence_counts.max()) if max_level is None else max_level
        dense = np.zeros(top + 1, dtype=np.int64)
        mask = self.occurrence_counts <= top
        dense[self.occurrence_counts[mask]] = self.value_counts[mask]
        return dense
