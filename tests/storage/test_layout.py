"""Tests for the physical layouts (Section 4.1 scenarios)."""

import numpy as np
import pytest

from repro.exceptions import ParameterError, UnknownLayoutError
from repro.storage.layout import (
    LAYOUT_NAMES,
    apply_layout,
    partially_clustered_layout,
    random_layout,
    sorted_layout,
    value_runs_layout,
)


def duplicated_values(num_distinct=100, multiplicity=50):
    return np.repeat(np.arange(1, num_distinct + 1), multiplicity)


class TestMultisetPreservation:
    """Every layout is a permutation: the multiset must be unchanged."""

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    def test_preserves_multiset(self, layout):
        values = duplicated_values()
        out = apply_layout(values, layout=layout, rng=0)
        np.testing.assert_array_equal(np.sort(out), np.sort(values))

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    def test_empty_input(self, layout):
        out = apply_layout(np.array([]), layout=layout, rng=0)
        assert out.size == 0


class TestRandomLayout:
    def test_shuffles(self):
        values = np.arange(1000)
        out = random_layout(values, rng=0)
        assert not np.array_equal(out, values)

    def test_deterministic_given_seed(self):
        values = np.arange(1000)
        a = random_layout(values, rng=42)
        b = random_layout(values, rng=42)
        np.testing.assert_array_equal(a, b)


class TestSortedLayout:
    def test_sorts(self):
        values = np.random.default_rng(0).permutation(1000)
        out = sorted_layout(values)
        assert (np.diff(out) >= 0).all()


class TestPartiallyClusteredLayout:
    def test_cluster_fraction_zero_is_fully_random(self):
        values = duplicated_values()
        out = partially_clustered_layout(values, cluster_fraction=0.0, rng=0)
        # No runs enforced: adjacency rate should be near the random baseline.
        adj = (out[:-1] == out[1:]).mean()
        assert adj < 0.05

    def test_cluster_fraction_one_groups_all_duplicates(self):
        values = duplicated_values(num_distinct=20, multiplicity=30)
        out = partially_clustered_layout(values, cluster_fraction=1.0, rng=0)
        # Each value forms one contiguous run: exactly 19 boundaries.
        changes = int((out[:-1] != out[1:]).sum())
        assert changes == 19

    def test_intermediate_fraction_increases_adjacency(self):
        values = duplicated_values()
        random_adj = (random_layout(values, rng=1)[:-1] ==
                      random_layout(values, rng=1)[1:]).mean()
        partial = partially_clustered_layout(values, cluster_fraction=0.5, rng=1)
        partial_adj = (partial[:-1] == partial[1:]).mean()
        assert partial_adj > random_adj + 0.1

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ParameterError):
            partially_clustered_layout(np.arange(10), cluster_fraction=1.5)

    def test_run_lengths_respect_fraction(self):
        """Each value's clustered run holds ~20% of its duplicates."""
        values = np.repeat([7], 100)
        out = partially_clustered_layout(values, cluster_fraction=0.2, rng=0)
        assert out.size == 100  # trivially same value; just no crash


class TestValueRunsLayout:
    def test_each_value_contiguous(self):
        values = duplicated_values(num_distinct=10, multiplicity=7)
        out = value_runs_layout(values, rng=0)
        changes = int((out[:-1] != out[1:]).sum())
        assert changes == 9

    def test_runs_shuffled(self):
        values = duplicated_values(num_distinct=50, multiplicity=3)
        out = value_runs_layout(values, rng=0)
        firsts = out[::3]
        assert not np.array_equal(firsts, np.sort(firsts))


class TestDispatch:
    def test_unknown_layout(self):
        with pytest.raises(UnknownLayoutError):
            apply_layout(np.arange(10), layout="zigzag")

    def test_partial_dispatch_uses_fraction(self):
        values = duplicated_values(num_distinct=20, multiplicity=30)
        out = apply_layout(values, layout="partial", rng=0, cluster_fraction=1.0)
        changes = int((out[:-1] != out[1:]).sum())
        assert changes == 19


class TestOneDimensionalColumns:
    """Every layout places a 1-D column and rejects any other shape alike."""

    @pytest.mark.parametrize("layout", LAYOUT_NAMES)
    @pytest.mark.parametrize(
        "values", [np.arange(6.0).reshape(2, 3), np.float64(4.0)],
        ids=["two_d", "scalar"],
    )
    def test_other_shapes_raise_parameter_error(self, layout, values):
        with pytest.raises(ParameterError, match="one-dimensional"):
            apply_layout(values, layout=layout, rng=0)
