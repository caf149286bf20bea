"""Statistical validation of the paper's theorems at test scale.

These are the "does the math actually hold on data" tests: Monte-Carlo
checks that the prescribed sample sizes deliver the promised deviations,
that the cross-validation test separates good from bad histograms
(Theorem 7), and that the Theorem 8 bound shrinks with the sample.  That
the Theorem 8 adversary defeats every estimator is asserted by
``benchmarks/test_bench_theorem8.py``.  Each uses small sizes and fixed
seeds to stay fast and deterministic.
"""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.error_metrics import max_error, relative_deviation
from repro.core.histogram import EquiHeightHistogram
from repro.distinct.bounds import adversarial_pair
from repro.sampling.record_sampler import sample_with_replacement


class TestTheorem4Empirically:
    def test_prescribed_sample_is_delta_deviant(self):
        """At the Theorem 4 sample size the histogram is δ-deviant in every
        trial (the bound is conservative, so zero failures expected)."""
        n, k, f, gamma = 50_000, 10, 0.5, 0.1
        data = np.arange(n)
        delta = f * n / k
        r = min(n, bounds.theorem4_sample_size(n, k, delta, gamma))
        failures = 0
        for seed in range(10):
            sample = sample_with_replacement(data, r, seed)
            approx = EquiHeightHistogram.from_values(sample, k)
            counted = approx.recount(data)
            if max_error(counted.counts) > delta:
                failures += 1
        assert failures == 0

    def test_error_shrinks_like_inverse_sqrt_r(self):
        """Quadrupling the sample should roughly halve the measured error."""
        n, k = 100_000, 20
        data = np.arange(n)
        errors = {}
        for r in (1_000, 16_000):
            trial_errors = []
            for seed in range(8):
                sample = sample_with_replacement(data, r, seed)
                approx = EquiHeightHistogram.from_values(sample, k)
                trial_errors.append(max_error(approx.recount(data).counts))
            errors[r] = np.mean(trial_errors)
        ratio = errors[1_000] / errors[16_000]
        assert 2.0 <= ratio <= 8.0  # ideal 4, generous noise band


class TestTheorem7Empirically:
    def _data(self, n=100_000):
        return np.arange(n)

    def test_bad_histogram_flagged(self):
        """A histogram with deviation 2f*n/k fails the δ_S < f*s/k test in
        nearly every trial (Theorem 7 part 1)."""
        n, k, f = 100_000, 10, 0.2
        data = self._data(n)
        # Construct a bad histogram: shift one separator to create a bucket
        # of size n/k + 2f*n/k.
        perfect = EquiHeightHistogram.from_sorted_values(data, k)
        seps = perfect.separators.copy()
        seps[0] = seps[0] + 2 * f * n / k  # bucket 0 grows by 2f*n/k values
        bad = EquiHeightHistogram.from_separators(seps, data)
        s = bounds.theorem7_reject_sample_size(k, f, gamma=0.1)
        flagged = 0
        for seed in range(10):
            sample = sample_with_replacement(data, s, seed)
            if relative_deviation(bad, sample) >= f * s / k:
                flagged += 1
        assert flagged >= 9

    def test_good_histogram_passes(self):
        """A histogram with deviation <= f*n/(2k) passes the test in nearly
        every trial (Theorem 7 part 2)."""
        n, k, f = 100_000, 10, 0.2
        data = self._data(n)
        perfect = EquiHeightHistogram.from_sorted_values(data, k)
        s = bounds.theorem7_accept_sample_size(k, f, gamma=0.1)
        s = min(s, n)
        passed = 0
        for seed in range(10):
            sample = sample_with_replacement(data, s, seed)
            if relative_deviation(perfect, sample) < f * s / k:
                passed += 1
        assert passed >= 9


class TestTheorem8Empirically:
    def test_bound_scales_with_sample_size(self):
        """Larger samples genuinely shrink the forced error (the sqrt(n/r)
        law), so the lower bound is about sampling, not a fixed wall."""
        n, gamma = 50_000, 0.5
        small = adversarial_pair(n, 20, gamma).guaranteed_ratio
        large = adversarial_pair(n, 200, gamma).guaranteed_ratio
        assert large < small
        theory_small = bounds.theorem8_error_lower_bound(n, 20, gamma)
        theory_large = bounds.theorem8_error_lower_bound(n, 200, gamma)
        assert theory_large < theory_small


class TestDistributionIndependence:
    @pytest.mark.parametrize("dataset_name", ["zipf0", "zipf2", "zipf4"])
    def test_same_sample_size_similar_error_across_skew(self, dataset_name):
        """Corollary 1 is distribution-free: a fixed sample size yields
        comparable fractional error regardless of skew (Figure 5's point),
        measured with the duplicate-safe metric."""
        from repro.core.error_metrics import fractional_max_error
        from repro.workloads import make_dataset

        dataset = make_dataset(dataset_name, 50_000, rng=0)
        data = dataset.values
        errors = []
        for seed in range(5):
            sample = np.sort(sample_with_replacement(data, 10_000, seed))
            hist = EquiHeightHistogram.from_sorted_values(sample, 20)
            errors.append(
                fractional_max_error(hist.separators, sample, data)
            )
        assert np.mean(errors) < 0.25
