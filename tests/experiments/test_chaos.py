"""Tests for the chaos sweep and the CVB-under-faults property.

Two guarantees are locked down here:

1. *Degraded but still bounded* — a resilient CVB build over a faulty file
   that reports ``converged`` really did pass the paper's ``f·s/k``
   cross-validation test, and its sample/histogram are drawn entirely from
   the readable portion of the table (the population the stopping rule can
   certify anything about).
2. *Deterministic chaos* — ``chaos_sweep`` is bit-identical across runs,
   worker counts, and chunkings, exactly like every other experiment.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import cvb_build
from repro.experiments.chaos import (
    ChaosPoint,
    chaos_sweep,
    format_chaos_report,
)
from repro.storage.faults import (
    FaultPolicy,
    FaultyHeapFile,
    ReadBudget,
    RetryPolicy,
)
from repro.storage.heapfile import HeapFile

GOLDEN_DIR = Path(__file__).parent / "golden"

SWEEP_KWARGS = dict(
    fault_rates=(0.0, 0.1),
    n=10_000,
    k=10,
    f=0.25,
    corrupt_fraction=0.02,
    blocking_factor=25,
    trials=2,
    seed=17,
)


class TestCVBUnderFaultsProperty:
    """Property: the resilient build still honours the stopping criterion."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        transient=st.sampled_from([0.0, 0.1, 0.3]),
        corrupt=st.sampled_from([0.0, 0.05, 0.1]),
    )
    @settings(max_examples=10, deadline=None)
    def test_converged_build_passed_threshold_on_readable_data(
        self, seed, transient, corrupt
    ):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 10_000, size=8000)
        base = HeapFile.from_values(
            values, layout="random", rng=seed, blocking_factor=20
        )
        faulty = FaultyHeapFile(
            base,
            FaultPolicy(
                transient_rate=transient, corrupt_fraction=corrupt, seed=seed
            ),
        )
        result = cvb_build(
            faulty,
            k=10,
            f=0.25,
            rng=seed + 1,
            retry=RetryPolicy(max_attempts=8, seed=seed + 2),
            budget=ReadBudget(max_skipped_fraction=0.9),
        )
        # The build always completes (skip-and-redraw, never raises here).
        assert result.converged
        # Convergence means the f·s/k (resp. fractional-f) test passed on the
        # final validation round — unless the file was exhausted, in which
        # case the histogram is exact over what was readable.
        if not result.exhausted:
            final = result.iterations[-1]
            assert final.passed
            assert final.observed_error < final.threshold
        # The sample is drawn entirely from readable pages.
        readable = set(faulty.readable_values_unaccounted().tolist())
        assert set(result.sample.tolist()).issubset(readable)
        # Accounting agrees between the result and the stream's skips.
        assert result.pages_skipped <= faulty.iostats.pages_skipped

    def test_rate_zero_build_matches_unfaulted_build(self):
        values = np.arange(1, 10_001)
        a = HeapFile.from_values(values, layout="random", rng=3, blocking_factor=25)
        b = FaultyHeapFile(
            HeapFile.from_values(values, layout="random", rng=3, blocking_factor=25),
            FaultPolicy(),
        )
        plain = cvb_build(a, k=10, f=0.25, rng=4)
        faulted = cvb_build(
            b, k=10, f=0.25, rng=4,
            retry=RetryPolicy(max_attempts=4), budget=ReadBudget(),
        )
        np.testing.assert_array_equal(plain.sample, faulted.sample)
        assert plain.histogram.separators.tolist() == \
            faulted.histogram.separators.tolist()
        assert a.iostats.page_reads == b.iostats.page_reads
        assert faulted.pages_skipped == 0


class TestChaosSweepDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self):
        return chaos_sweep(**SWEEP_KWARGS)

    def test_repeatable_same_seed(self, baseline):
        again = chaos_sweep(**SWEEP_KWARGS)
        assert format_chaos_report(again) == format_chaos_report(baseline)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_results(self, baseline, workers):
        par = chaos_sweep(**SWEEP_KWARGS, workers=workers)
        assert format_chaos_report(par) == format_chaos_report(baseline)
        for a, b in zip(par["points"], baseline["points"]):
            assert a.iostats.snapshot() == b.iostats.snapshot()
            assert (a.mean_error == b.mean_error) or (
                math.isnan(a.mean_error) and math.isnan(b.mean_error)
            )

    def test_chunking_does_not_change_results(self, baseline):
        par = chaos_sweep(**SWEEP_KWARGS, workers=2, chunk_size=1)
        assert format_chaos_report(par) == format_chaos_report(baseline)

    def test_different_seed_differs(self, baseline):
        other = chaos_sweep(**{**SWEEP_KWARGS, "seed": 18})
        assert format_chaos_report(other) != format_chaos_report(baseline)


class TestChaosSweepContent:
    @pytest.fixture(scope="class")
    def result(self):
        return chaos_sweep(**SWEEP_KWARGS)

    def test_points_shape(self, result):
        assert len(result["points"]) == 2
        for point, rate in zip(result["points"], SWEEP_KWARGS["fault_rates"]):
            assert isinstance(point, ChaosPoint)
            assert point.fault_rate == rate
            assert point.trials == SWEEP_KWARGS["trials"]
            assert point.converged + point.aborted <= point.trials

    def test_builds_complete_and_errors_are_finite(self, result):
        # With generous retries and a 50% skip allowance, small-rate chaos
        # must not abort the build.
        for point in result["points"]:
            assert point.aborted == 0
            assert math.isfinite(point.mean_error)
            assert point.mean_error <= point.worst_error

    def test_fault_accounting_appears_at_positive_rates(self, result):
        quiet, noisy = result["points"]
        assert noisy.iostats.retries > 0 or noisy.iostats.failed_reads > 0
        # Rate 0 has no transient failures (corruption may still skip pages).
        assert quiet.iostats.retries == 0

    def test_report_renders(self, result):
        text = format_chaos_report(result)
        assert "fault_rate" in text
        assert "2f_bound" in text
        assert str(SWEEP_KWARGS["trials"]) in text

    def test_bound_fields(self, result):
        assert result["target_f"] == SWEEP_KWARGS["f"]
        assert result["theorem7_bound"] == 2 * SWEEP_KWARGS["f"]
        assert result["pool_stats"].trials == 4


class TestChaosGolden:
    """The fault path's report, pinned byte for byte.

    Rate 0 runs a corruption-only file (two pages skipped across the two
    trials); rate 0.05 adds transient faults and retries.
    """

    def test_report_matches_golden(self, golden):
        result = chaos_sweep(
            fault_rates=(0.0, 0.05),
            n=20_000,
            k=10,
            corrupt_fraction=0.01,
            trials=2,
            seed=7,
        )
        golden(
            GOLDEN_DIR / "chaos_report.txt",
            format_chaos_report(result) + "\n",
        )
