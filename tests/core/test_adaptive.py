"""Tests for the CVB adaptive block-sampling algorithm (Section 4)."""

import numpy as np
import pytest

from repro.core.adaptive import CVBConfig, CVBSampler, cvb_build
from repro.core.error_metrics import fractional_max_error
from repro.exceptions import ParameterError
from repro.sampling.schedule import DoublingSchedule
from repro.storage import HeapFile


def make_file(values, layout="random", b=25, rng=0):
    return HeapFile.from_values(values, layout=layout, rng=rng, blocking_factor=b)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = CVBConfig(k=100)
        assert cfg.f == 0.1
        assert cfg.validation == "full_increment"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 10, "f": 0.0},
            {"k": 10, "f": 1.5},
            {"k": 10, "gamma": 0.0},
            {"k": 10, "gamma": 1.0},
            {"k": 10, "validation": "bogus"},
            {"k": 10, "metric": "bogus"},
            {"k": 10, "max_sampled_fraction": 0.0},
            {"k": 10, "max_sampled_fraction": 1.5},
            {"k": 10, "min_validation_tuples": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            CVBConfig(**kwargs)


class TestConvergence:
    def test_converges_on_uniform_random_layout(self):
        values = np.arange(1, 50_001)
        hf = make_file(values, "random", b=25, rng=1)
        result = cvb_build(hf, k=20, f=0.2, rng=2)
        assert result.converged
        # The result histogram must actually be good against the full data.
        err = fractional_max_error(
            result.histogram.separators, result.sample, np.sort(values)
        )
        assert err <= 0.4  # convergence threshold plus noise allowance

    def test_samples_less_than_full_file_on_easy_data(self):
        values = np.arange(1, 100_001)
        hf = make_file(values, "random", b=50, rng=3)
        result = cvb_build(hf, k=10, f=0.25, rng=4)
        assert result.converged
        assert result.pages_sampled < hf.num_pages

    def test_sorted_layout_needs_more_sampling_than_random(self):
        values = np.arange(1, 50_001)
        random_result = cvb_build(
            make_file(values, "random", b=50, rng=5), k=20, f=0.2, rng=6
        )
        sorted_result = cvb_build(
            make_file(values, "sorted", b=50, rng=7), k=20, f=0.2, rng=8
        )
        assert sorted_result.pages_sampled >= random_result.pages_sampled

    def test_exhausting_file_marks_converged_and_exact(self):
        # Tiny file: initial Theorem 4 sample covers everything.
        values = np.arange(1, 1_001)
        hf = make_file(values, "random", b=10, rng=9)
        result = cvb_build(hf, k=5, f=0.1, rng=10)
        assert result.exhausted
        assert result.converged
        assert result.tuples_sampled == values.size
        # Exact histogram: zero error.
        err = fractional_max_error(
            result.histogram.separators, result.sample, np.sort(values)
        )
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_impossible_target_scans_the_whole_file_exactly(self):
        values = np.arange(1, 5_001)
        hf = make_file(values, "random", b=10, rng=69)
        result = cvb_build(hf, k=5, f=0.01, rng=70)
        # Reached through validation rounds, not by the initial sample.
        assert len(result.iterations) > 1
        assert result.exhausted
        assert result.converged
        assert result.pages_sampled == hf.num_pages
        np.testing.assert_array_equal(result.sample, values)

    def test_empty_file_rejected(self):
        hf = HeapFile(np.array([]), blocking_factor=10)
        with pytest.raises(ParameterError):
            cvb_build(hf, k=5, f=0.2, rng=0)


class TestTrace:
    def test_iteration_zero_is_initial_sample(self):
        values = np.arange(1, 20_001)
        result = cvb_build(make_file(values, rng=11), k=10, f=0.3, rng=12)
        first = result.iterations[0]
        assert first.index == 0
        assert np.isnan(first.observed_error)
        assert not first.passed

    def test_cumulative_tuples_monotone(self):
        values = np.arange(1, 20_001)
        result = cvb_build(make_file(values, rng=13), k=10, f=0.3, rng=14)
        cumulative = [it.cumulative_tuples for it in result.iterations]
        assert cumulative == sorted(cumulative)

    def test_last_iteration_passed_when_converged_without_exhaustion(self):
        values = np.arange(1, 100_001)
        result = cvb_build(
            make_file(values, "random", b=50, rng=15), k=10, f=0.25, rng=16
        )
        if not result.exhausted:
            assert result.iterations[-1].passed

    def test_sampling_rate(self):
        values = np.arange(1, 20_001)
        result = cvb_build(make_file(values, rng=17), k=10, f=0.3, rng=18)
        assert result.sampling_rate(values.size) == pytest.approx(
            result.tuples_sampled / values.size
        )
        with pytest.raises(ParameterError):
            result.sampling_rate(0)


class TestBudget:
    def test_max_sampled_fraction_caps_pages(self):
        values = np.arange(1, 50_001)
        hf = make_file(values, "sorted", b=25, rng=19)
        config = CVBConfig(k=50, f=0.05, max_sampled_fraction=0.25)
        result = CVBSampler(config).run(hf, rng=20)
        assert result.pages_sampled <= int(0.25 * hf.num_pages) + 1

    def test_budget_blocking_convergence_returns_the_partial_result(self):
        values = np.arange(1, 50_001)
        hf = make_file(values, "sorted", b=25, rng=21)
        config = CVBConfig(k=50, f=0.02, max_sampled_fraction=0.1)
        result = CVBSampler(config, schedule=DoublingSchedule(10)).run(
            hf, rng=22
        )
        # No error: the caller reads the verdict off the result.
        assert not result.converged
        assert not result.exhausted
        assert 0 < result.pages_sampled <= int(0.1 * hf.num_pages) + 1
        assert result.histogram.total == result.tuples_sampled


class TestSchedulesAndModes:
    def test_custom_schedule_controls_increments(self):
        values = np.arange(1, 20_001)
        hf = make_file(values, rng=23)
        config = CVBConfig(k=10, f=0.3)
        result = CVBSampler(config, schedule=DoublingSchedule(8)).run(hf, rng=24)
        # First increment is exactly the schedule's initial size (8 blocks).
        assert result.iterations[0].increment_blocks == 8

    def test_one_per_block_validation_runs(self):
        values = np.arange(1, 50_001)
        hf = make_file(values, "random", b=50, rng=25)
        result = cvb_build(
            hf, k=10, f=0.3, rng=26, validation="one_per_block"
        )
        assert result.converged

    def test_fractional_metric_on_duplicated_data(self, zipf_dataset):
        hf = make_file(zipf_dataset.values, "random", b=25, rng=27)
        result = cvb_build(hf, k=20, f=0.25, rng=28, metric="fractional")
        assert result.converged
        err = fractional_max_error(
            result.histogram.separators, result.sample, zipf_dataset.values
        )
        assert np.isfinite(err)

    def test_count_metric_runs(self):
        values = np.arange(1, 50_001)
        hf = make_file(values, "random", b=50, rng=29)
        result = cvb_build(hf, k=10, f=0.3, rng=30, metric="count")
        assert result.converged

    def test_min_validation_tuples_defers_convergence(self):
        values = np.arange(1, 50_001)
        hf1 = make_file(values, "random", b=50, rng=31)
        eager = cvb_build(hf1, k=10, f=0.5, rng=32)
        hf2 = make_file(values, "random", b=50, rng=31)
        deferred = cvb_build(
            hf2, k=10, f=0.5, rng=32, min_validation_tuples=20_000
        )
        assert deferred.tuples_sampled >= eager.tuples_sampled


class TestDeterminism:
    def test_same_seed_same_result(self):
        values = np.arange(1, 30_001)
        a = cvb_build(make_file(values, rng=33), k=10, f=0.3, rng=34)
        b = cvb_build(make_file(values, rng=33), k=10, f=0.3, rng=34)
        assert a.histogram == b.histogram
        assert a.pages_sampled == b.pages_sampled

    def test_different_seed_usually_differs(self):
        values = np.arange(1, 30_001)
        a = cvb_build(make_file(values, rng=35), k=10, f=0.3, rng=36)
        b = cvb_build(make_file(values, rng=35), k=10, f=0.3, rng=37)
        assert not np.array_equal(a.sample, b.sample)


class TestDescribe:
    def test_describe_mentions_rounds_and_verdicts(self):
        values = np.arange(1, 30_001)
        result = cvb_build(make_file(values, rng=40), k=10, f=0.3, rng=41)
        text = result.describe()
        assert "round 0: initial sample" in text
        assert "CVB run:" in text
        if result.converged and not result.exhausted:
            assert "[PASS]" in text


class TestEdgeCases:
    def test_blocking_factor_one_degenerates_to_record_sampling(self):
        values = np.arange(1, 5_001)
        hf = make_file(values, "random", b=1, rng=50)
        result = cvb_build(hf, k=5, f=0.3, rng=51)
        assert result.converged
        assert result.pages_sampled == result.tuples_sampled

    def test_short_last_page_counted_correctly(self):
        values = np.arange(1, 10_008)  # 10,007 tuples: last page holds 7
        hf = make_file(values, "random", b=100, rng=52)
        result = cvb_build(hf, k=5, f=0.3, rng=53)
        assert result.tuples_sampled <= values.size
        if result.exhausted:
            assert result.tuples_sampled == values.size

    def test_k_larger_than_initial_sample(self):
        """More buckets than early sample tuples: separators repeat, the
        algorithm keeps sampling rather than crashing."""
        values = np.arange(1, 20_001)
        hf = make_file(values, "random", b=200, rng=54)
        result = cvb_build(hf, k=500, f=0.5, rng=55)
        assert result.histogram.k == 500

    def test_single_page_file(self):
        values = np.arange(1, 11)
        hf = make_file(values, "random", b=100, rng=56)
        result = cvb_build(hf, k=3, f=0.5, rng=57)
        assert result.exhausted
        assert result.converged
        assert result.tuples_sampled == 10

    def test_constant_column(self):
        values = np.full(5_000, 42)
        hf = make_file(values, "random", b=50, rng=58)
        result = cvb_build(hf, k=10, f=0.3, rng=59)
        assert result.converged
        assert result.histogram.estimate_range(42, 42) == pytest.approx(
            result.tuples_sampled, rel=0.01
        )


class TestSampledPages:
    def test_sampled_pages_recorded_on_plain_run(self):
        values = np.arange(1, 20_001)
        hf = make_file(values, "random", b=25, rng=75)
        result = cvb_build(hf, k=10, f=0.3, rng=76)
        assert result.sampled_pages is not None
        assert result.sampled_pages.size == result.pages_sampled
        assert np.unique(result.sampled_pages).size == result.pages_sampled

    def test_sample_is_the_tuples_of_the_sampled_pages(self):
        values = np.arange(1, 20_001)
        hf = make_file(values, "random", b=25, rng=77)
        result = cvb_build(hf, k=10, f=0.3, rng=78)
        pages = np.sort(hf.read_pages(result.sampled_pages))
        np.testing.assert_array_equal(result.sample, pages)

    def test_each_sampled_page_is_read_once(self):
        values = np.arange(1, 20_001)
        hf = make_file(values, "random", b=25, rng=79)
        result = cvb_build(hf, k=10, f=0.3, rng=80)
        assert hf.iostats.page_reads == result.pages_sampled
