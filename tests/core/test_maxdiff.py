"""Tests for the MaxDiff(V,A) histogram baseline."""

import numpy as np
import pytest

from repro.core.histogram import EquiHeightHistogram
from repro.core.maxdiff import MaxDiffBucket, MaxDiffHistogram
from repro.exceptions import EmptyDataError, ParameterError


def spiky_values():
    """Uniform background with one dominant value."""
    return np.concatenate([np.arange(1, 2001), np.full(5000, 1000)])


class TestConstruction:
    def test_bucket_budget(self):
        hist = MaxDiffHistogram.from_values(np.arange(1000), 16)
        assert hist.k <= 16
        assert hist.total == 1000

    def test_single_bucket(self):
        hist = MaxDiffHistogram.from_values(np.arange(100), 1)
        assert hist.k == 1
        assert hist.buckets()[0].count == 100

    def test_single_value(self):
        hist = MaxDiffHistogram.from_values(np.full(50, 7), 8)
        assert hist.k == 1
        assert hist.buckets()[0] == MaxDiffBucket(7.0, 7.0, 50, 1)

    def test_two_dimensional_input_is_one_multiset(self):
        # Unlike the equi-height constructors, MaxDiff counts values, so a
        # 2-D array is read as the multiset of all its entries.
        grid = np.array([[3, 1, 2], [1, 1, 5]])
        hist = MaxDiffHistogram.from_values(grid, 2)
        assert hist.buckets() == MaxDiffHistogram.from_values(
            grid.ravel(), 2
        ).buckets()
        assert hist.total == grid.size

    def test_hot_value_isolated(self):
        """The defining MaxDiff property: the frequency spike lands on
        bucket boundaries, isolating the hot value."""
        hist = MaxDiffHistogram.from_values(spiky_values(), 8)
        hot_buckets = [
            b for b in hist.buckets() if b.lo <= 1000 <= b.hi
        ]
        assert len(hot_buckets) == 1
        hot = hot_buckets[0]
        # The hot value's bucket is narrow (few distinct values around it).
        assert hot.distinct <= 3
        assert hot.count >= 5000

    def test_distinct_counts_partition(self):
        values = spiky_values()
        hist = MaxDiffHistogram.from_values(values, 8)
        assert hist.estimate_distinct() == np.unique(values).size

    def test_buckets_ordered_and_disjoint(self):
        hist = MaxDiffHistogram.from_values(spiky_values(), 8)
        buckets = hist.buckets()
        for a, b in zip(buckets, buckets[1:]):
            assert a.hi < b.lo or a.hi <= b.lo

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            MaxDiffHistogram.from_values(np.array([]), 4)

    def test_invalid_k_rejected(self):
        with pytest.raises(ParameterError):
            MaxDiffHistogram.from_values(np.arange(10), 0)

    def test_unordered_buckets_rejected(self):
        with pytest.raises(ParameterError):
            MaxDiffHistogram(
                [MaxDiffBucket(5, 10, 1, 1), MaxDiffBucket(0, 4, 1, 1)]
            )


class TestEstimation:
    def test_full_range(self):
        values = spiky_values()
        hist = MaxDiffHistogram.from_values(values, 8)
        est = hist.estimate_range(values.min(), values.max())
        assert est == pytest.approx(values.size, rel=0.01)

    def test_hot_value_estimate_exact(self):
        hist = MaxDiffHistogram.from_values(spiky_values(), 8)
        # The hot value sits in its own (near-)singleton bucket.
        assert hist.estimate_range(1000, 1000) >= 5000

    def test_monotone_leq(self):
        hist = MaxDiffHistogram.from_values(spiky_values(), 8)
        points = np.linspace(0, 2100, 64)
        estimates = [hist.estimate_leq(p) for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_out_of_range_zero(self):
        hist = MaxDiffHistogram.from_values(np.arange(100), 4)
        assert hist.estimate_range(500, 600) == 0.0

    def test_reversed_range_rejected(self):
        hist = MaxDiffHistogram.from_values(np.arange(100), 4)
        with pytest.raises(ParameterError):
            hist.estimate_range(9, 3)

    def test_beats_equiheight_on_spike_with_few_buckets(self):
        """With a tiny bucket budget, MaxDiff isolates the spike while plain
        equi-height (without the EQ_ROWS refinement it normally carries)
        must smear it."""
        values = spiky_values()
        k = 4
        maxdiff = MaxDiffHistogram.from_values(values, k)
        plain = EquiHeightHistogram.from_values(values, k)
        # Strip the equal-boundary refinement for a like-for-like contrast.
        plain = EquiHeightHistogram(
            plain.separators, plain.counts, plain.min_value, plain.max_value
        )
        truth = 5001  # 5000 dups + 1 from the ramp
        err_maxdiff = abs(maxdiff.estimate_range(1000, 1000) - truth)
        err_plain = abs(plain.estimate_range(1000, 1000) - truth)
        assert err_maxdiff < err_plain

    def test_from_sample_usable(self, rng):
        values = spiky_values()
        sample = rng.choice(values, size=1500, replace=True)
        hist = MaxDiffHistogram.from_values(sample, 8)
        scale = values.size / sample.size
        est = hist.estimate_range(1000, 1000) * scale
        assert est == pytest.approx(5001, rel=0.3)
