"""Tests for compressed histograms (Section 5 extension)."""

import numpy as np
import pytest

from repro.core.compressed import CompressedHistogram, SingletonBucket
from repro.exceptions import EmptyDataError, ParameterError


def skewed_values():
    """One value with 60% of the mass, the rest spread thin."""
    return np.concatenate(
        [np.full(6000, 500), np.arange(1, 4001)]
    )


class TestConstruction:
    def test_hot_value_becomes_singleton(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        singles = hist.singletons
        assert any(s.value == 500 and s.count >= 6000 for s in singles)

    def test_total_preserved(self):
        values = skewed_values()
        hist = CompressedHistogram.from_values(values, k=10)
        assert hist.total == values.size

    def test_no_singletons_on_distinct_data(self):
        hist = CompressedHistogram.from_values(np.arange(1, 1001), k=10)
        assert hist.singletons == []
        assert hist.remainder is not None
        assert hist.remainder.k == 10

    def test_bucket_budget_respected(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        assert hist.k <= 10

    def test_at_most_k_minus_1_singletons(self):
        # Every value hot: all duplicates, 5 distinct values, k=3.
        values = np.repeat(np.arange(5), 100)
        hist = CompressedHistogram.from_values(values, k=3)
        assert len(hist.singletons) <= 2

    def test_all_one_value(self):
        values = np.full(1000, 42)
        hist = CompressedHistogram.from_values(values, k=5)
        assert len(hist.singletons) == 1
        assert hist.singletons[0] == SingletonBucket(42.0, 1000)
        assert hist.remainder is None

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            CompressedHistogram.from_values(np.array([]), k=5)

    def test_invalid_k_rejected(self):
        with pytest.raises(ParameterError):
            CompressedHistogram.from_values(np.arange(10), k=0)

    def test_inconsistent_total_rejected(self):
        with pytest.raises(ParameterError):
            CompressedHistogram([SingletonBucket(1.0, 5)], None, total=10)

    def test_threshold_factor_controls_cutoff(self):
        values = np.concatenate([np.full(300, 7), np.arange(1000)])
        # n/k = 130: 300 > 130, singleton at factor 1.
        strict = CompressedHistogram.from_values(values, k=10, threshold_factor=1.0)
        assert len(strict.singletons) == 1
        # Factor 3 raises cutoff to 390: no singleton.
        loose = CompressedHistogram.from_values(values, k=10, threshold_factor=3.0)
        assert len(loose.singletons) == 0


class TestOneDimensionalColumns:
    @pytest.mark.parametrize(
        "build",
        [
            lambda values: CompressedHistogram.from_values(values, k=2),
            lambda values: CompressedHistogram.from_sample(values, 100, k=2),
        ],
        ids=["from_values", "from_sample"],
    )
    @pytest.mark.parametrize(
        "values",
        # Sorting each row of the 2-D input, then reading the rows as one
        # sorted run, used to give separator 3.0 with counts [5, 1].
        [
            np.array(3.0),
            np.array([[3, 1, 2], [1, 1, 5]]),
            np.arange(6.0).reshape(6, 1),
        ],
        ids=["0-d", "2-D", "column-vector"],
    )
    def test_other_shapes_rejected(self, build, values):
        with pytest.raises(ParameterError, match="one-dimensional"):
            build(values)

    @pytest.mark.parametrize(
        "column",
        [
            skewed_values(),
            np.arange(1, 2001),
            np.full(500, 7),
            np.repeat([0.5, 1.5, 2.5, 9.0], [300, 5, 700, 40]),
        ],
        ids=["skewed", "distinct", "constant", "heavy-floats"],
    )
    def test_read_only_sorted_column_builds_the_shuffled_copys_histogram(
        self, column
    ):
        # A sorted column is used as it is, so the build must not write
        # into it.
        column = np.sort(column)
        column.flags.writeable = False
        shuffled = np.random.default_rng(0).permutation(column)
        built = CompressedHistogram.from_values(column, k=10)
        expected = CompressedHistogram.from_values(shuffled, k=10)
        assert built.singletons == expected.singletons
        assert built.remainder == expected.remainder
        assert built.total == expected.total


class TestEstimation:
    def test_equality_on_singleton_is_exact(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        # 6000 explicit copies plus one from the arange ramp.
        assert hist.estimate_equality(500) == 6001

    def test_range_covering_all_is_total(self):
        values = skewed_values()
        hist = CompressedHistogram.from_values(values, k=10)
        est = hist.estimate_range(values.min(), values.max())
        assert est == pytest.approx(values.size, rel=0.02)

    def test_range_excluding_hot_value(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        # [1000, 4000] excludes value 500: ~3001 thin values.
        est = hist.estimate_range(1000, 4000)
        assert est == pytest.approx(3001, rel=0.15)

    def test_range_including_hot_value_dominated_by_it(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        est = hist.estimate_range(450, 550)
        assert est >= 6000

    def test_reversed_range_rejected(self):
        hist = CompressedHistogram.from_values(skewed_values(), k=10)
        with pytest.raises(ParameterError):
            hist.estimate_range(10, 5)

    def test_better_than_plain_equiheight_on_hot_value(self):
        """The motivating property: the hot value's count is exact, whereas a
        plain 10-bucket equi-height histogram smears it."""
        from repro.core.histogram import EquiHeightHistogram

        values = skewed_values()
        compressed = CompressedHistogram.from_values(values, k=10)
        plain = EquiHeightHistogram.from_values(values, 10)
        truth = 6000
        err_compressed = abs(compressed.estimate_range(500, 500) - truth)
        err_plain = abs(plain.estimate_range(500, 500) - truth)
        assert err_compressed <= err_plain


class TestFromSample:
    def test_scales_to_relation_size(self, rng):
        values = skewed_values()
        sample = rng.choice(values, size=2000, replace=True)
        hist = CompressedHistogram.from_sample(sample, n=values.size, k=10)
        assert hist.total == pytest.approx(values.size, rel=0.05)

    def test_hot_value_survives_sampling(self, rng):
        values = skewed_values()
        sample = rng.choice(values, size=2000, replace=True)
        hist = CompressedHistogram.from_sample(sample, n=values.size, k=10)
        assert hist.estimate_equality(500) == pytest.approx(6000, rel=0.25)

    def test_sample_larger_than_n_rejected(self):
        with pytest.raises(ParameterError):
            CompressedHistogram.from_sample(np.arange(100), n=50, k=5)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyDataError):
            CompressedHistogram.from_sample(np.array([]), n=100, k=5)
