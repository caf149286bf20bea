"""Unit tests for the error metrics of Sections 2, 4 and 5."""

import numpy as np
import pytest

from repro.core.error_metrics import (
    avg_error,
    fractional_max_error,
    histogram_max_error_fraction,
    is_delta_deviant,
    is_delta_separated,
    max_error,
    max_error_fraction,
    relative_deviation,
    relative_deviation_fraction,
    separation_error,
    var_error,
)
from repro.core.histogram import EquiHeightHistogram
from repro.exceptions import EmptyDataError, ParameterError

#: The bucket sizes of the paper's Example 2 (n=1000, k=10).
EXAMPLE2_COUNTS = np.array([88, 101, 87, 88, 89, 180, 90, 88, 103, 86])


class TestPaperExample2:
    """The paper computes all three metrics on a fixed bucket vector."""

    def test_avg_error(self):
        assert avg_error(EXAMPLE2_COUNTS) == pytest.approx(16.8)

    def test_var_error(self):
        # Exact value is 27.25; the paper rounds to 27.5.
        assert var_error(EXAMPLE2_COUNTS) == pytest.approx(27.25, abs=0.05)

    def test_max_error(self):
        assert max_error(EXAMPLE2_COUNTS) == pytest.approx(80.0)

    def test_max_error_fraction(self):
        assert max_error_fraction(EXAMPLE2_COUNTS) == pytest.approx(0.80)


class TestMetricBasics:
    def test_perfect_histogram_has_zero_errors(self):
        counts = np.full(10, 100)
        assert avg_error(counts) == 0.0
        assert var_error(counts) == 0.0
        assert max_error(counts) == 0.0

    def test_theorem2_max_dominates_avg_and_var(self):
        """Theorem 2: Δmax <= δ implies Δavg <= δ and Δvar <= δ."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 1000, size=rng.integers(2, 64))
            delta = max_error(counts)
            assert avg_error(counts) <= delta + 1e-9
            assert var_error(counts) <= delta + 1e-9

    def test_var_at_least_avg_never_required(self):
        """Δvar >= Δavg always (RMS-mean inequality) — a sanity relation."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            counts = rng.integers(0, 500, size=16)
            assert var_error(counts) >= avg_error(counts) - 1e-9

    def test_is_delta_deviant(self):
        counts = np.array([90, 110, 100, 100])
        assert is_delta_deviant(counts, 10)
        assert not is_delta_deviant(counts, 9)

    def test_negative_delta_rejected(self):
        with pytest.raises(ParameterError):
            is_delta_deviant(np.array([1, 2]), -1)

    def test_empty_counts_rejected(self):
        with pytest.raises(ParameterError):
            max_error(np.array([]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ParameterError):
            avg_error(np.array([5, -1]))

    def test_fraction_of_zero_total_rejected(self):
        with pytest.raises(EmptyDataError):
            max_error_fraction(np.zeros(4))


class TestRelativeDeviation:
    def test_deviation_of_matching_sample_is_small(self):
        data = np.arange(100_000)
        hist = EquiHeightHistogram.from_values(data, 10)
        # The full data partitions perfectly by its own separators.
        assert relative_deviation(hist, data) == 0.0

    def test_deviation_of_shifted_sample_is_large(self):
        data = np.arange(10_000)
        hist = EquiHeightHistogram.from_values(data, 10)
        shifted = np.arange(5_000)  # only lower half: upper buckets empty
        dev = relative_deviation(hist, shifted)
        assert dev >= 5_000 / 10  # at least one bucket is off by |S|/k

    def test_fraction_form(self):
        data = np.arange(10_000)
        hist = EquiHeightHistogram.from_values(data, 10)
        sample = np.arange(0, 10_000, 2)
        frac = relative_deviation_fraction(hist, sample)
        dev = relative_deviation(hist, sample)
        assert frac == pytest.approx(dev * 10 / sample.size)

    def test_empty_sample_rejected(self):
        hist = EquiHeightHistogram.from_values(np.arange(100), 4)
        with pytest.raises(EmptyDataError):
            relative_deviation(hist, np.array([]))


class TestSeparationError:
    def test_identical_separators_have_zero_separation(self):
        data = np.arange(1000)
        seps = np.array([250.0, 500.0, 750.0])
        assert separation_error(seps, seps, data) == 0.0

    def test_known_shift(self):
        data = np.arange(1, 101)  # 1..100
        a = np.array([50.0])
        b = np.array([60.0])
        # B_1 differs by the 10 values in (50, 60]; symmetric difference 10.
        assert separation_error(a, b, data) == 10.0

    def test_symmetric(self):
        data = np.sort(np.random.default_rng(2).integers(0, 1000, 500))
        a = np.array([100.0, 400.0, 800.0])
        b = np.array([150.0, 350.0, 850.0])
        assert separation_error(a, b, data) == separation_error(b, a, data)

    def test_mismatched_k_rejected(self):
        with pytest.raises(ParameterError):
            separation_error(np.array([1.0]), np.array([1.0, 2.0]), np.arange(10))

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataError):
            separation_error(np.array([1.0]), np.array([2.0]), np.array([]))

    def test_is_delta_separated(self):
        data = np.arange(1, 101)
        assert is_delta_separated(np.array([50.0]), np.array([55.0]), data, 5)
        assert not is_delta_separated(np.array([50.0]), np.array([60.0]), data, 5)

    def test_separation_bounds_deviation(self):
        """δ-separation implies each bucket size differs by at most δ, so it
        is the stronger metric (Section 3.2)."""
        data = np.sort(np.random.default_rng(3).integers(0, 10_000, 5000))
        perfect = EquiHeightHistogram.from_sorted_values(data, 20)
        sample = np.sort(
            np.random.default_rng(4).choice(data, size=1000, replace=True)
        )
        approx = EquiHeightHistogram.from_values(sample, 20)
        sep = separation_error(approx.separators, perfect.separators, data)
        counted = approx.recount(data)
        assert max_error(counted.counts) <= sep + 1e-9


class TestFractionalMaxError:
    def test_reduces_to_f_on_distinct_data(self):
        """With duplicate-free data and separators at exact sample quantiles,
        f' equals the per-range relative deviation, which matches the count
        metric's fraction."""
        data = np.arange(1, 10_001)
        hist = EquiHeightHistogram.from_sorted_values(data, 10)
        # Against the same data, error is zero.
        assert fractional_max_error(hist.separators, data, data) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_detects_distribution_mismatch(self):
        reference = np.arange(1, 1001)
        hist = EquiHeightHistogram.from_sorted_values(reference, 10)
        # Lower half only, each value twice; sorted, as f′ requires.
        observed = np.sort(np.concatenate([np.arange(1, 501)] * 2))
        err = fractional_max_error(hist.separators, reference, observed)
        assert err >= 0.9  # upper ranges hold ~0 observed mass

    def test_safe_under_heavy_duplicates(self, zipf_dataset):
        values = zipf_dataset.values
        hist = EquiHeightHistogram.from_sorted_values(values, 20)
        err = fractional_max_error(hist.separators, values, values)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_sampled_reference_close_to_data(self, rng):
        data = np.sort(rng.integers(0, 10**6, size=50_000))
        sample = np.sort(rng.choice(data, size=20_000, replace=True))
        hist = EquiHeightHistogram.from_values(sample, 10)
        err = fractional_max_error(hist.separators, sample, data)
        assert err < 0.2

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyDataError):
            fractional_max_error(np.array([1.0]), np.array([]), np.arange(10))
        with pytest.raises(EmptyDataError):
            fractional_max_error(np.array([1.0]), np.arange(10), np.array([]))

    def test_histogram_max_error_fraction_end_to_end(self, rng):
        data = np.arange(1, 100_001)
        sample = np.sort(rng.choice(data, size=10_000, replace=True))
        approx = EquiHeightHistogram.from_values(sample, 20)
        err = histogram_max_error_fraction(approx, data)
        assert 0 <= err < 0.5


class TestCountNormalisationDtypes:
    """Pin the `_normalise_counts` dtype contract at REPRO_SCALE extremes.

    The historical blanket cast to float64 silently widened integer counts,
    losing exactness above 2**53 — at the paper's 20 M-row scale a full-table
    recount into few buckets sits uncomfortably close to where narrow input
    dtypes overflow instead.  Integer inputs must now stay int64 end-to-end.
    """

    def test_int64_counts_with_sum_above_float53_stay_exact(self):
        # The bucket values are float-exact but their sum (2**53 + 1) is
        # not: the old float path summed to 2**53 and skewed the ideal by
        # half a tuple.  With int64 accumulation the ideal is the exactly
        # representable (2**53 + 1) / 3 and the deviations are exact.
        counts = np.array([2**52, 2**52, 1], dtype=np.int64)
        ideal = (2**53 + 1) // 3  # divides exactly
        assert max_error(counts) == float(ideal - 1)

    def test_int32_counts_at_20m_scale_do_not_overflow(self):
        # 20 M rows in int32 buckets: sums exceed int32 range; int64
        # accumulation must keep Delta-avg exact.
        counts = np.full(4, 20_000_000, dtype=np.int32)
        assert avg_error(counts) == 0.0
        assert max_error_fraction(np.array([0, 40_000_000], np.int32)) == 1.0

    def test_small_integer_results_unchanged_versus_float_path(self):
        # Below 2**53 the int64 path must agree bit-for-bit with the old
        # float64 widening — this is what keeps bench baselines stable.
        counts = np.array([3, 9, 1, 7], dtype=np.int16)
        as_float = counts.astype(np.float64)
        assert max_error(counts) == max_error(as_float)
        assert avg_error(counts) == avg_error(as_float)
        assert var_error(counts) == var_error(as_float)
        assert max_error_fraction(counts) == max_error_fraction(as_float)

    def test_uint64_within_int64_range_accepted(self):
        counts = np.array([5, 10], dtype=np.uint64)
        assert max_error(counts) == 2.5

    def test_uint64_beyond_int64_range_rejected(self):
        counts = np.array([2**63, 1], dtype=np.uint64)
        with pytest.raises(ParameterError, match="int64"):
            max_error(counts)

    def test_float_counts_still_accepted(self):
        # Fractional counts are legitimate (merged / scaled histograms).
        counts = np.array([1.5, 2.5], dtype=np.float32)
        assert max_error(counts) == 0.5

    def test_non_numeric_counts_rejected(self):
        with pytest.raises(ParameterError, match="numeric"):
            max_error(np.array(["a", "b"]))
