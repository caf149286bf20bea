"""Unit tests for the equi-height histogram (Section 2.1 semantics)."""

import numpy as np
import pytest

from repro.core.histogram import (
    Bucket,
    EquiHeightHistogram,
    equi_height_separators,
)
from repro.exceptions import EmptyDataError, ParameterError


class TestSeparators:
    def test_even_split_distinct_values(self):
        values = np.arange(1, 101)  # 100 distinct values
        seps = equi_height_separators(values, 4)
        assert list(seps) == [25, 50, 75]

    def test_number_of_separators_is_k_minus_1(self):
        values = np.arange(50)
        for k in (1, 2, 5, 10, 50):
            assert equi_height_separators(values, k).size == k - 1

    def test_k_one_has_no_separators(self):
        seps = equi_height_separators(np.arange(10), 1)
        assert seps.size == 0

    def test_separators_are_actual_data_values(self):
        values = np.array([3, 7, 11, 19, 23, 31, 41, 47])
        seps = equi_height_separators(values, 4)
        assert all(s in values for s in seps)

    def test_duplicates_can_repeat_separators(self):
        values = np.array([1] * 90 + list(range(2, 12)))
        seps = equi_height_separators(np.sort(values), 5)
        # Value 1 dominates: multiple separators land on it.
        assert (seps == 1).sum() >= 2

    def test_separators_non_decreasing(self):
        values = np.sort(np.random.default_rng(0).integers(0, 1000, size=500))
        seps = equi_height_separators(values, 20)
        assert (np.diff(seps) >= 0).all()

    def test_empty_values_raises(self):
        with pytest.raises(EmptyDataError):
            equi_height_separators(np.array([]), 4)

    def test_non_positive_k_raises(self):
        with pytest.raises(ParameterError):
            equi_height_separators(np.arange(10), 0)

    def test_more_buckets_than_values(self):
        # Degenerate but legal: separators repeat values.
        seps = equi_height_separators(np.array([1, 2, 3]), 10)
        assert seps.size == 9


class TestConstruction:
    def test_from_values_equal_buckets_on_distinct_data(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        assert hist.k == 10
        assert hist.total == 1000
        np.testing.assert_array_equal(hist.counts, np.full(10, 100))

    def test_from_values_accepts_unsorted_input(self):
        rng = np.random.default_rng(1)
        values = rng.permutation(np.arange(1, 501))
        hist = EquiHeightHistogram.from_values(values, 5)
        np.testing.assert_array_equal(hist.counts, np.full(5, 100))

    def test_from_sorted_values_matches_from_values(self):
        values = np.sort(np.random.default_rng(2).integers(0, 10_000, 2000))
        a = EquiHeightHistogram.from_values(values, 8)
        b = EquiHeightHistogram.from_sorted_values(values, 8)
        assert a == b

    def test_from_separators_counts_full_data(self):
        data = np.arange(1, 101)
        hist = EquiHeightHistogram.from_separators(np.array([30, 60]), data)
        assert list(hist.counts) == [30, 30, 40]

    def test_min_max_recorded(self):
        hist = EquiHeightHistogram.from_values(np.array([5, 1, 9, 3]), 2)
        assert hist.min_value == 1
        assert hist.max_value == 9

    def test_empty_raises(self):
        with pytest.raises(EmptyDataError):
            EquiHeightHistogram.from_values(np.array([]), 4)

    def test_mismatched_counts_and_separators_rejected(self):
        with pytest.raises(ParameterError):
            EquiHeightHistogram(np.array([1.0]), np.array([1, 2, 3]), 0, 2)

    def test_decreasing_separators_rejected(self):
        with pytest.raises(ParameterError):
            EquiHeightHistogram(np.array([5.0, 1.0]), np.array([1, 1, 1]), 0, 9)

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            EquiHeightHistogram(np.array([1.0]), np.array([1, -1]), 0, 2)

    def test_min_above_max_rejected(self):
        with pytest.raises(ParameterError):
            EquiHeightHistogram(np.array([1.0]), np.array([1, 1]), 5, 2)

    @pytest.mark.parametrize(
        "separators, lo, hi",
        [
            ([np.nan], 0, 2),
            ([1.0, np.nan], 0, 2),
            ([np.inf], 0, 2),
            ([-np.inf], 0, 2),
            ([1.0], np.nan, 2),
            ([1.0], 0, np.nan),
            ([1.0], -np.inf, 2),
            ([1.0], 0, np.inf),
        ],
    )
    def test_non_finite_separators_and_extrema_rejected(self, separators, lo, hi):
        # NaN compares false both ways, so no order check catches it.
        counts = np.ones(len(separators) + 1, dtype=np.int64)
        with pytest.raises(ParameterError, match="finite"):
            EquiHeightHistogram(np.array(separators), counts, lo, hi)

    @pytest.mark.parametrize(
        "counts, eq_counts",
        [([1.5, 1.0], None), ([1.0, np.inf], None), ([1, 1], [0.5])],
    )
    def test_fractional_counts_rejected(self, counts, eq_counts):
        with pytest.raises(ParameterError, match="whole numbers"):
            EquiHeightHistogram(
                np.array([1.0]), np.array(counts), 0, 2, eq_counts=eq_counts
            )

    def test_whole_float_counts_accepted(self):
        hist = EquiHeightHistogram(np.array([1.0]), np.array([2.0, 3.0]), 0, 2)
        np.testing.assert_array_equal(hist.counts, [2, 3])
        assert hist.counts.dtype == np.int64


class TestBucketSemantics:
    """The paper's convention: B_j = {v : s_{j-1} < v <= s_j}."""

    def test_value_equal_to_separator_goes_left(self):
        hist = EquiHeightHistogram.from_separators(
            np.array([10.0, 20.0]), np.arange(1, 31)
        )
        assert hist.bucket_index(10) == 0
        assert hist.bucket_index(20) == 1

    def test_value_above_separator_goes_right(self):
        hist = EquiHeightHistogram.from_separators(
            np.array([10.0, 20.0]), np.arange(1, 31)
        )
        assert hist.bucket_index(10.5) == 1
        assert hist.bucket_index(25) == 2

    def test_extremes(self):
        hist = EquiHeightHistogram.from_separators(
            np.array([10.0, 20.0]), np.arange(1, 31)
        )
        assert hist.bucket_index(-1e9) == 0
        assert hist.bucket_index(1e9) == 2

    def test_count_values_partitions_everything(self):
        data = np.random.default_rng(3).integers(0, 1000, size=5000)
        hist = EquiHeightHistogram.from_values(data, 7)
        other = np.random.default_rng(4).integers(0, 1000, size=3000)
        counts = hist.count_values(other)
        assert counts.sum() == other.size

    def test_count_values_empty(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        counts = hist.count_values(np.array([]))
        assert counts.sum() == 0
        assert counts.size == 4

    def test_counts_match_bincount_definition(self):
        data = np.random.default_rng(5).normal(size=2000)
        hist = EquiHeightHistogram.from_values(data, 16)
        expected = np.bincount(
            np.searchsorted(hist.separators, np.sort(data), side="left"),
            minlength=16,
        )
        np.testing.assert_array_equal(hist.counts, expected)

    def test_recount_keeps_separators(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        recounted = hist.recount(np.arange(50))
        np.testing.assert_array_equal(recounted.separators, hist.separators)
        assert recounted.total == 50


class TestBuckets:
    def test_buckets_have_finite_bounds(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 101), 4)
        buckets = hist.buckets()
        assert len(buckets) == 4
        assert buckets[0].lo == 1
        assert buckets[-1].hi == 100

    def test_bucket_widths_positive_for_distinct_data(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 101), 4)
        assert all(b.width > 0 for b in hist.buckets())

    def test_bucket_counts_match(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 101), 4)
        assert [b.count for b in hist.buckets()] == list(hist.counts)

    def test_bucket_dataclass(self):
        b = Bucket(lo=0.0, hi=10.0, count=5)
        assert b.width == 10.0


class TestRangeEstimation:
    def test_full_range_estimates_total(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        assert hist.estimate_range(1, 1000) == pytest.approx(1000, rel=0.01)

    def test_uniform_data_interpolation_accurate(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        # True count of [101, 300] is 200.
        assert hist.estimate_range(101, 300) == pytest.approx(200, rel=0.05)

    def test_out_of_domain_range_is_zero(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        assert hist.estimate_range(2000, 3000) == 0.0
        assert hist.estimate_range(-100, -50) == 0.0

    def test_reversed_range_raises(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 101), 4)
        with pytest.raises(ParameterError):
            hist.estimate_range(50, 10)

    def test_estimate_leq_monotone(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        points = np.linspace(-10, 1010, 57)
        estimates = [hist.estimate_leq(p) for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_estimate_leq_bounds(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        assert hist.estimate_leq(-5) == 0.0
        assert hist.estimate_leq(5000) == 1000.0

    def test_theorem3_error_bound_holds_empirically(self):
        """Range estimates from a perfect histogram stay within 2n/k of truth
        on duplicate-free data (Theorem 1 part 1 is tight at 2n/k; the
        interpolation here should not exceed it)."""
        n, k = 10_000, 50
        data = np.arange(1, n + 1)
        hist = EquiHeightHistogram.from_values(data, k)
        rng = np.random.default_rng(6)
        for _ in range(50):
            lo, hi = np.sort(rng.integers(1, n + 1, size=2))
            truth = hi - lo + 1
            estimate = hist.estimate_range(lo, hi)
            assert abs(estimate - truth) <= 2 * n / k + 1

    def test_ideal_bucket_size(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 101), 4)
        assert hist.ideal_bucket_size == 25.0


class TestEquality:
    def test_equal_histograms(self):
        a = EquiHeightHistogram.from_values(np.arange(100), 4)
        b = EquiHeightHistogram.from_values(np.arange(100), 4)
        assert a == b

    def test_different_k_not_equal(self):
        a = EquiHeightHistogram.from_values(np.arange(100), 4)
        b = EquiHeightHistogram.from_values(np.arange(100), 5)
        assert a != b

    def test_not_equal_to_other_types(self):
        a = EquiHeightHistogram.from_values(np.arange(100), 4)
        assert (a == 42) is False

    def test_counts_are_read_only(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        with pytest.raises(ValueError):
            hist.counts[0] = 999

    def test_repr_mentions_k_and_total(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        assert "k=4" in repr(hist)
        assert "total=100" in repr(hist)


class TestInputValidation:
    """NaN/inf poisoning is rejected up front."""

    def test_nan_rejected_in_from_values(self):
        values = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(ParameterError):
            EquiHeightHistogram.from_values(values, 2)

    def test_inf_rejected(self):
        values = np.array([1.0, np.inf, 3.0])
        with pytest.raises(ParameterError):
            EquiHeightHistogram.from_values(values, 2)

    def test_nan_rejected_in_from_separators(self):
        with pytest.raises(ParameterError):
            EquiHeightHistogram.from_separators(
                np.array([1.0]), np.array([0.0, np.nan])
            )

    def test_integer_arrays_skip_the_check(self):
        # No NaN possible: the fast path must not pay for the scan.
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        assert hist.total == 100

    def test_clean_floats_accepted(self):
        hist = EquiHeightHistogram.from_values(
            np.linspace(0.0, 1.0, 100), 4
        )
        assert hist.total == 100


class TestOneDimensionalColumns:
    """A histogram is built over a 1-D column; any other shape is a typed
    error, not an IndexError from deep inside a kernel."""

    @pytest.mark.parametrize(
        "build",
        [
            EquiHeightHistogram.from_values,
            EquiHeightHistogram.from_sorted_values,
        ],
        ids=["from_values", "from_sorted_values"],
    )
    @pytest.mark.parametrize(
        "values",
        [
            np.array(3.0),
            np.array([[1, 1, 2], [3, 5, 5]]),
            np.arange(6.0).reshape(6, 1),
        ],
        ids=["0-d", "2-D", "column-vector"],
    )
    def test_other_shapes_rejected(self, build, values):
        with pytest.raises(ParameterError, match="one-dimensional"):
            build(values, 2)

    @pytest.mark.parametrize(
        "build",
        [
            EquiHeightHistogram.from_values,
            EquiHeightHistogram.from_sorted_values,
        ],
        ids=["from_values", "from_sorted_values"],
    )
    def test_read_only_sorted_column_is_used_as_it_is(self, build):
        # An already-sorted column skips the sort, so the build reads the
        # caller's array and must not write into it.
        column = np.repeat(np.arange(1, 51), np.arange(1, 51))
        column.flags.writeable = False
        built = build(column, 7)
        assert built == EquiHeightHistogram.from_values(
            np.random.default_rng(0).permutation(column), 7
        )


class TestQuantileEstimation:
    def test_endpoints(self):
        hist = EquiHeightHistogram.from_values(np.arange(1, 1001), 10)
        assert hist.estimate_quantile(0.0) == pytest.approx(1, abs=1)
        assert hist.estimate_quantile(1.0) == pytest.approx(1000, abs=1)

    def test_uniform_data_linear(self):
        hist = EquiHeightHistogram.from_values(np.arange(0, 10_000), 20)
        for q in (0.1, 0.25, 0.5, 0.9):
            assert hist.estimate_quantile(q) == pytest.approx(
                q * 10_000, rel=0.02
            )

    def test_monotone_in_q(self):
        data = np.random.default_rng(0).normal(size=5_000)
        hist = EquiHeightHistogram.from_values(data, 16)
        qs = np.linspace(0, 1, 41)
        values = [hist.estimate_quantile(q) for q in qs]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_roundtrip_with_cumulative_fraction(self):
        data = np.arange(0, 100_000)
        hist = EquiHeightHistogram.from_values(data, 50)
        for q in (0.2, 0.5, 0.77):
            v = hist.estimate_quantile(q)
            assert hist.cumulative_fraction(v) == pytest.approx(q, abs=0.02)

    def test_hot_value_plateau(self):
        """A value holding half the mass: a wide band of quantiles maps
        onto it exactly."""
        # Values <= 500 cover quantiles up to ~0.55; the hot value's point
        # mass occupies the band (0.05, 0.55).
        values = np.concatenate([np.full(5_000, 500), np.arange(5_000)])
        hist = EquiHeightHistogram.from_values(values, 10)
        assert hist.estimate_quantile(0.3) == pytest.approx(500, abs=1)
        assert hist.estimate_quantile(0.5) == pytest.approx(500, abs=1)

    def test_invalid_q_rejected(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        with pytest.raises(ParameterError):
            hist.estimate_quantile(-0.1)
        with pytest.raises(ParameterError):
            hist.estimate_quantile(1.1)

    def test_quantiles_close_to_true_from_sample(self):
        rng = np.random.default_rng(1)
        data = np.sort(rng.lognormal(3, 1, size=100_000))
        sample = rng.choice(data, size=10_000, replace=True)
        hist = EquiHeightHistogram.from_values(sample, 50)
        for q in (0.1, 0.5, 0.9):
            true_q = float(np.quantile(data, q))
            assert hist.estimate_quantile(q) == pytest.approx(true_q, rel=0.1)
