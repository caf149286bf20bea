"""Tests for the density statistic (Section 7.1 semantics)."""

import numpy as np
import pytest

from repro.engine.density import (
    column_density,
    density_from_counts,
    density_from_estimate,
)
from repro.exceptions import EmptyDataError, ParameterError


class TestDensity:
    def test_all_distinct_is_zero(self):
        assert column_density(np.arange(100)) == 0.0

    def test_all_identical_is_one(self):
        assert column_density(np.full(100, 7)) == 1.0

    def test_monotone_in_duplication(self):
        low = column_density(np.repeat(np.arange(50), 2))
        high = column_density(np.repeat(np.arange(10), 10))
        assert 0 < low < high < 1

    def test_single_row(self):
        assert column_density(np.array([5])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            column_density(np.array([]))

    def test_counts_form_matches(self):
        values = np.repeat(np.arange(25), 4)
        assert column_density(values) == density_from_counts(100, 25)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParameterError):
            density_from_counts(0, 1)
        with pytest.raises(ParameterError):
            density_from_counts(10, 0)
        with pytest.raises(ParameterError):
            density_from_counts(10, 11)

    def test_estimate_form_clamps(self):
        # Estimates outside [1, n] are clamped rather than rejected.
        assert density_from_estimate(100, 0.5) == density_from_counts(100, 1)
        assert density_from_estimate(100, 500.0) == density_from_counts(100, 100)

    def test_estimate_matches_exact_when_feasible(self):
        assert density_from_estimate(100, 25.0) == density_from_counts(100, 25)


class TestSelfJoinDensity:
    """The SQL Server-style second-moment density."""

    def test_all_distinct_is_one_over_n(self):
        from repro.engine.density import selfjoin_density

        assert selfjoin_density(np.arange(1000)) == pytest.approx(1 / 1000)

    def test_constant_column_is_one(self):
        from repro.engine.density import selfjoin_density

        assert selfjoin_density(np.full(100, 7)) == 1.0

    def test_uniform_duplicates(self):
        from repro.engine.density import selfjoin_density

        # d values each n/d times: density = d * (1/d)^2 = 1/d.
        values = np.repeat(np.arange(50), 20)
        assert selfjoin_density(values) == pytest.approx(1 / 50)

    def test_sample_estimator_unbiased(self):
        from repro.engine.density import (
            selfjoin_density,
            selfjoin_density_from_sample,
        )

        rng = np.random.default_rng(0)
        values = np.repeat(np.arange(100), 50)  # true density 0.01
        truth = selfjoin_density(values)
        estimates = [
            selfjoin_density_from_sample(
                values[np.random.default_rng(s).integers(0, values.size, 500)]
            )
            for s in range(50)
        ]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.15)

    def test_sample_estimator_concentrates_on_skew(self):
        """The second moment is easy even where the distinct count is not:
        a heavy-skew column's density estimates tightly from 1% samples."""
        from repro.engine.density import (
            selfjoin_density,
            selfjoin_density_from_sample,
        )
        from repro.workloads import make_dataset

        dataset = make_dataset("zipf4", 100_000, rng=1)
        truth = selfjoin_density(dataset.values)
        estimates = [
            selfjoin_density_from_sample(
                dataset.values[
                    np.random.default_rng(s).integers(0, dataset.n, 1000)
                ]
            )
            for s in range(20)
        ]
        assert np.mean(estimates) == pytest.approx(truth, rel=0.1)

    def test_single_element_sample(self):
        from repro.engine.density import selfjoin_density_from_sample

        assert selfjoin_density_from_sample(np.array([5])) == 1.0

    def test_multidimensional_sample_is_one_multiset(self):
        from repro.engine.density import selfjoin_density_from_sample

        grid = np.array([[3, 1], [1, 2]])
        assert selfjoin_density_from_sample(grid) == 2 / 12

    def test_nans_collide_as_one_value(self):
        """As with ``np.unique``: the NaNs form one value's count."""
        from repro.engine.density import selfjoin_density_from_sample

        sample = np.array([np.nan, 1.0, np.nan, 2.0, 1.0])
        # counts {1.0: 2, 2.0: 1, NaN: 2}: 4 colliding ordered pairs of 20.
        assert selfjoin_density_from_sample(sample) == 4 / 20

    def test_empty_rejected(self):
        from repro.engine.density import (
            selfjoin_density,
            selfjoin_density_from_sample,
        )

        with pytest.raises(EmptyDataError):
            selfjoin_density(np.array([]))
        with pytest.raises(EmptyDataError):
            selfjoin_density_from_sample(np.array([]))
