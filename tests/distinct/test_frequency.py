"""Tests for sample frequency profiles."""

import numpy as np
import pytest

from repro.distinct.frequency import FrequencyProfile
from repro.exceptions import EmptyDataError


class TestFrequencyProfile:
    def test_basic_profile(self):
        sample = np.array([1, 1, 2, 3, 3, 3])
        p = FrequencyProfile.from_sample(sample)
        assert p.f(1) == 1  # value 2
        assert p.f(2) == 1  # value 1
        assert p.f(3) == 1  # value 3
        assert p.f(4) == 0

    def test_identities(self):
        """sum_j j*f_j = r and sum_j f_j = d_samp."""
        rng = np.random.default_rng(0)
        sample = rng.integers(0, 500, size=3000)
        p = FrequencyProfile.from_sample(sample)
        assert p.sample_size == 3000
        assert p.distinct_in_sample == np.unique(sample).size

    def test_singletons_and_multiples(self):
        sample = np.array([1, 2, 3, 3, 4, 4, 4])
        p = FrequencyProfile.from_sample(sample)
        assert p.singletons == 2
        assert p.multiples == 2
        assert p.singletons + p.multiples == p.distinct_in_sample

    def test_all_distinct(self):
        p = FrequencyProfile.from_sample(np.arange(100))
        assert p.singletons == 100
        assert p.multiples == 0

    def test_all_same(self):
        p = FrequencyProfile.from_sample(np.full(50, 9))
        assert p.distinct_in_sample == 1
        assert p.f(50) == 1
        assert p.singletons == 0

    def test_as_dense(self):
        sample = np.array([1, 1, 2])
        dense = FrequencyProfile.from_sample(sample).as_dense()
        np.testing.assert_array_equal(dense, [0, 1, 1])

    def test_as_dense_truncation(self):
        sample = np.concatenate([np.full(10, 1), [2]])
        dense = FrequencyProfile.from_sample(sample).as_dense(max_level=3)
        assert dense.size == 4
        assert dense[1] == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            FrequencyProfile.from_sample(np.array([]))

    def test_multidimensional_sample_is_one_multiset(self):
        p = FrequencyProfile.from_sample(np.array([[3, 1], [1, 2]]))
        assert p.occurrence_counts.tolist() == [1, 2]
        assert p.value_counts.tolist() == [2, 1]

    def test_nans_count_as_one_value(self):
        """As with ``np.unique``: every NaN falls in one value's count."""
        p = FrequencyProfile.from_sample(
            np.array([np.nan, 1.0, np.nan, 2.0, 1.0, np.nan])
        )
        assert p.distinct_in_sample == 3
        assert (p.f(1), p.f(2), p.f(3)) == (1, 1, 1)

    def test_works_on_floats_and_strings(self):
        p = FrequencyProfile.from_sample(np.array([0.5, 0.5, 1.5]))
        assert p.f(2) == 1
        p2 = FrequencyProfile.from_sample(np.array(["a", "b", "a"]))
        assert p2.singletons == 1
