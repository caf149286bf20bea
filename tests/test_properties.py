"""Property-based tests (hypothesis) for core invariants.

These target the data structures the rest of the system leans on: histogram
partitioning, error-metric relationships (Theorem 2), layout permutation
invariants, frequency-profile identities, and bound monotonicity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import bounds
from repro.core.error_metrics import (
    avg_error,
    fractional_max_error,
    max_error,
    relative_deviation,
    separation_error,
    var_error,
)
from repro.core.histogram import EquiHeightHistogram, equi_height_separators
from repro.distinct.estimators import GEEEstimator
from repro.distinct.frequency import FrequencyProfile
from repro.distinct.metrics import ratio_error
from repro.engine.density import selfjoin_density_from_sample
from repro.storage.layout import apply_layout
from repro.workloads.zipf import zipf_counts

value_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=400),
    elements=st.integers(min_value=-10_000, max_value=10_000),
)

#: Floats with exact ties, ulp-separated near-ties and signed zeros.
float_arrays = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=400),
    elements=st.sampled_from(
        [-2.5, -0.0, 0.0, 1.0, float(np.nextafter(1.0, 2.0)), 3.75, 1e300]
    ),
)

samples = st.one_of(value_arrays, float_arrays)

count_arrays = arrays(
    dtype=np.int64,
    shape=st.integers(min_value=1, max_value=64),
    elements=st.integers(min_value=0, max_value=10_000),
)


class TestHistogramProperties:
    @given(values=value_arrays, k=st.integers(min_value=1, max_value=32))
    @settings(max_examples=150, deadline=None)
    def test_counts_partition_all_values(self, values, k):
        hist = EquiHeightHistogram.from_values(values, k)
        assert hist.counts.sum() == values.size
        assert hist.k == k

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=32))
    @settings(max_examples=150, deadline=None)
    def test_separators_sorted_and_within_range(self, values, k):
        seps = equi_height_separators(np.sort(values), k)
        assert (np.diff(seps) >= 0).all()
        if seps.size:
            assert seps.min() >= values.min()
            assert seps.max() <= values.max()

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_count_values_total_preserved_on_any_probe(self, values, k):
        hist = EquiHeightHistogram.from_values(values, k)
        probe = values * 2 - 3  # arbitrary related probe set
        assert hist.count_values(probe).sum() == probe.size

    @given(
        values=value_arrays,
        k=st.integers(min_value=2, max_value=16),
        lo=st.floats(min_value=-20_000, max_value=20_000),
        width=st.floats(min_value=0, max_value=40_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_estimates_bounded_and_monotone(self, values, k, lo, width):
        hist = EquiHeightHistogram.from_values(values, k)
        est = hist.estimate_range(lo, lo + width)
        assert 0.0 <= est <= hist.total + 1e-9
        wider = hist.estimate_range(lo, lo + 2 * width)
        assert wider >= est - 1e-9

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_perfect_histogram_on_distinct_data_is_balanced(self, values, k):
        distinct = np.unique(values)
        hist = EquiHeightHistogram.from_sorted_values(distinct, k)
        # Bucket sizes differ by at most 1 after ceil-position rounding.
        assert hist.counts.max() - hist.counts.min() <= (
            1 if distinct.size % k == 0 else int(np.ceil(distinct.size / k))
        )


class TestErrorMetricProperties:
    @given(counts=count_arrays)
    @settings(max_examples=200, deadline=None)
    def test_theorem2_ordering(self, counts):
        """Δavg <= Δvar <= Δmax for every bucket-count vector."""
        assert avg_error(counts) <= var_error(counts) + 1e-9
        assert var_error(counts) <= max_error(counts) + 1e-9

    @given(counts=count_arrays, shift=st.integers(min_value=1, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_uniform_shift_keeps_all_metrics(self, counts, shift):
        """Adding the same amount to every bucket changes n/k and all
        deviations identically: metrics are translation-invariant."""
        shifted = counts + shift
        assert max_error(shifted) == pytest.approx(max_error(counts), abs=1e-9)
        assert avg_error(shifted) == pytest.approx(avg_error(counts), abs=1e-9)

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_relative_deviation_bounded_by_sample_size(self, values, k):
        hist = EquiHeightHistogram.from_values(values, k)
        dev = relative_deviation(hist, values)
        assert 0 <= dev <= values.size

    @given(values=value_arrays, k=st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_separation_error_identity_and_symmetry(self, values, k):
        data = np.sort(values)
        seps_a = equi_height_separators(data, k)
        # Perturb one separator upward where possible.
        seps_b = seps_a.astype(np.float64).copy()
        if seps_b.size:
            seps_b[-1] = seps_b[-1] + 1
        assert separation_error(seps_a, seps_a, data) == 0.0
        assert separation_error(seps_a, seps_b, data) == (
            separation_error(seps_b, seps_a, data)
        )

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_fractional_error_zero_against_self(self, values, k):
        data = np.sort(values)
        seps = equi_height_separators(data, k)
        assert fractional_max_error(seps, data, data) <= 1e-9


def _any_order_fractional_error(separators, reference, observed) -> float:
    """Definition 4 on value sets in any order: each CDF at the distinct
    separators is a direct count of the values at or below it."""
    distinct = np.unique(np.asarray(separators, dtype=np.float64))

    def fractions_leq(values):
        values = np.asarray(values, dtype=np.float64)
        counts = (values[:, None] <= distinct[None, :]).sum(axis=0)
        return np.concatenate(([0.0], counts / values.size, [1.0]))

    f_ranges = np.diff(fractions_leq(reference))
    p_ranges = np.diff(fractions_leq(observed))
    populated = f_ranges > 0
    errors = (
        np.abs(f_ranges[populated] - p_ranges[populated]) / f_ranges[populated]
    )
    return float(errors.max())


class TestFractionalErrorContract:
    @given(
        reference=samples,
        observed=samples,
        k=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_sorted_input_matches_the_any_order_definition(
        self, reference, observed, k, seed
    ):
        """f′ on sorted value sets equals Definition 4 computed on the same
        value sets shuffled: reading sorted input loses nothing."""
        separators = equi_height_separators(np.sort(reference), k)
        rng = np.random.default_rng(seed)
        want = _any_order_fractional_error(
            separators, rng.permutation(reference), rng.permutation(observed)
        )
        got = fractional_max_error(
            separators, np.sort(reference), np.sort(observed)
        )
        assert got == want


class TestLayoutProperties:
    @given(
        values=value_arrays,
        layout=st.sampled_from(["random", "sorted", "partial", "value_runs"]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_layouts_are_permutations(self, values, layout, seed):
        out = apply_layout(values, layout=layout, rng=seed)
        np.testing.assert_array_equal(np.sort(out), np.sort(values))


class TestFrequencyProperties:
    @given(values=value_arrays)
    @settings(max_examples=150, deadline=None)
    def test_profile_identities(self, values):
        p = FrequencyProfile.from_sample(values)
        assert p.sample_size == values.size
        assert p.distinct_in_sample == np.unique(values).size
        assert p.singletons + p.multiples == p.distinct_in_sample

    @given(sample=samples)
    @settings(max_examples=150, deadline=None)
    def test_profile_matches_np_unique_on_unsorted_samples(self, sample):
        _, per_value = np.unique(sample, return_counts=True)
        levels, f = np.unique(per_value, return_counts=True)
        p = FrequencyProfile.from_sample(sample)
        np.testing.assert_array_equal(p.occurrence_counts, levels)
        np.testing.assert_array_equal(p.value_counts, f)
        assert p.occurrence_counts.dtype == p.value_counts.dtype == np.int64

    @given(sample=samples, n_extra=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_selfjoin_density_matches_np_unique_on_unsorted_samples(
        self, sample, n_extra
    ):
        n = sample.size + n_extra
        _, counts = np.unique(sample, return_counts=True)
        r = sample.size
        if r == 1:
            pair_collision = 1.0
        else:
            collisions = float((counts * (counts - 1)).sum())
            pair_collision = collisions / (r * (r - 1.0))
        assert selfjoin_density_from_sample(sample) == pair_collision
        assert selfjoin_density_from_sample(sample, n=n) == (
            (pair_collision * (n - 1.0) + 1.0) / n
        )

    @given(values=value_arrays, n_extra=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_gee_estimate_feasible(self, values, n_extra):
        n = values.size + n_extra
        p = FrequencyProfile.from_sample(values)
        est = GEEEstimator().estimate(p, n)
        assert p.distinct_in_sample <= est <= n

    @given(
        est=st.floats(min_value=0.001, max_value=10**9),
        true=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_ratio_error_at_least_one(self, est, true):
        assert ratio_error(est, true) >= 1.0


class TestBoundProperties:
    @given(
        n=st.integers(min_value=100, max_value=10**9),
        k=st.integers(min_value=1, max_value=1000),
        f=st.floats(min_value=0.01, max_value=1.0),
        gamma=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_corollary1_roundtrip(self, n, k, f, gamma):
        r = bounds.corollary1_sample_size(n, k, f, gamma)
        f_back = bounds.corollary1_error_fraction(n, k, r, gamma)
        assert f_back <= f + 1e-9  # ceil'd r can only improve the error

    @given(
        n=st.integers(min_value=100, max_value=10**9),
        k=st.integers(min_value=1, max_value=1000),
        gamma=st.floats(min_value=1e-6, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sample_size_monotone_in_k(self, n, k, gamma):
        small = bounds.corollary1_sample_size(n, k, 0.1, gamma)
        large = bounds.corollary1_sample_size(n, k + 1, 0.1, gamma)
        assert large >= small

    @given(counts=st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_zipf_counts_always_sum(self, counts):
        out = zipf_counts(counts, 97, 1.7)
        assert out.sum() == counts
        assert (out >= 0).all()


class TestEstimationProperties:
    @given(
        values=value_arrays,
        k=st.integers(min_value=2, max_value=16),
        probe=st.floats(min_value=-20_000, max_value=20_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_lt_never_exceeds_leq(self, values, k, probe):
        hist = EquiHeightHistogram.from_values(values, k)
        assert hist.estimate_lt(probe) <= hist.estimate_leq(probe) + 1e-9

    @given(values=value_arrays, k=st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_eq_counts_within_bucket_counts(self, values, k):
        hist = EquiHeightHistogram.from_values(values, k)
        # Mass at a separator cannot exceed its bucket's total count.
        for j in range(hist.k - 1):
            assert hist.eq_counts[j] <= hist.counts[j]

    @given(values=value_arrays, k=st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_point_query_on_separator_returns_eq_mass(self, values, k):
        hist = EquiHeightHistogram.from_values(values, k)
        seps = np.unique(hist.separators)
        for s in seps[:3]:
            got = hist.estimate_range(float(s), float(s))
            exact = int((np.asarray(values) == s).sum())
            # eq_counts make separator point queries exact.
            assert got == pytest.approx(exact, abs=1e-6)


class TestSerializationProperties:
    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_histogram_json_roundtrip(self, values, k):
        from repro.core.serialization import (
            histogram_from_json,
            histogram_to_json,
        )

        hist = EquiHeightHistogram.from_values(values, k)
        assert histogram_from_json(histogram_to_json(hist)) == hist


class TestMaxDiffProperties:
    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_maxdiff_partitions_everything(self, values, k):
        from repro.core.maxdiff import MaxDiffHistogram

        hist = MaxDiffHistogram.from_values(values, k)
        assert hist.total == values.size
        assert hist.k <= k
        assert hist.estimate_distinct() == np.unique(values).size

    @given(values=value_arrays, k=st.integers(min_value=1, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_maxdiff_full_range_is_total(self, values, k):
        from repro.core.maxdiff import MaxDiffHistogram

        hist = MaxDiffHistogram.from_values(values, k)
        est = hist.estimate_range(float(values.min()), float(values.max()))
        assert est == pytest.approx(hist.total, rel=1e-9)


class TestDensityProperties:
    @given(values=value_arrays)
    @settings(max_examples=150, deadline=None)
    def test_selfjoin_density_bounds(self, values):
        from repro.engine.density import selfjoin_density

        d = selfjoin_density(values)
        n = values.size
        assert 1.0 / n - 1e-12 <= d <= 1.0 + 1e-12

    @given(values=value_arrays)
    @settings(max_examples=100, deadline=None)
    def test_census_sample_estimates_exactly(self, values):
        from repro.engine.density import (
            selfjoin_density,
            selfjoin_density_from_sample,
        )

        n = values.size
        est = selfjoin_density_from_sample(values, n=n)
        assert est == pytest.approx(selfjoin_density(values), abs=1e-9)
