"""Tests for the experiment harness: config, reporting, runner kernels."""

import numpy as np
import pytest

from repro.experiments.config import SCALES, get_scale
from repro.experiments.reporting import (
    Series,
    format_series,
    format_table,
    paper_note,
)
from repro.experiments import runner
from repro.experiments.parallel import TrialPool
from repro.experiments.runner import (
    build_heapfile,
    cvb_sampling_cost,
    error_at_rate,
    mean_cvb_cost,
    mean_error_at_rate,
    required_blocks_for_error,
)
from repro.exceptions import ParameterError


class TestConfig:
    def test_default_scale_is_small(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale().name == "small"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale().name == "medium"

    def test_explicit_name_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale("paper").name == "paper"

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_scales_are_increasing_in_n(self):
        assert SCALES["small"].n < SCALES["medium"].n < SCALES["paper"].n


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_series_accumulates(self):
        s = Series("lbl", "x", "y")
        s.add(1, 2.0)
        s.add(3, 4.0)
        assert s.rows() == [(1, 2.0), (3, 4.0)]

    def test_format_series_single(self):
        s = Series("lbl", "rate", "err")
        s.add(0.1, 0.5)
        text = format_series("Figure X", [s])
        assert "Figure X" in text
        assert "rate" in text

    def test_format_series_multi_uses_labels(self):
        a = Series("Z=0", "rate", "err")
        b = Series("Z=2", "rate", "err")
        a.add(0.1, 0.5)
        b.add(0.1, 0.6)
        text = format_series("Figure 5", [a, b])
        assert "Z=0" in text and "Z=2" in text

    def test_paper_note(self):
        text = paper_note("error falls", caveat="scaled down")
        assert "paper expectation" in text
        assert "scaled down" in text


class TestRunnerKernels:
    def test_error_at_rate_zero_at_full_rate(self):
        """Sampling every block rebuilds the perfect histogram: f′ = 0."""
        values = np.arange(1, 10_001)
        hf = build_heapfile(values, "random", 25, rng=0)
        assert error_at_rate(hf, values, 1.0, 10, rng=1) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_error_at_rate_invalid_metric(self):
        values = np.arange(100)
        hf = build_heapfile(values, "random", 25, rng=0)
        with pytest.raises(ParameterError):
            error_at_rate(hf, values, 0.5, 5, rng=1, metric="bogus")

    def test_error_at_rate_decreases_with_rate(self, rng):
        values = np.arange(1, 50_001)
        hf = build_heapfile(values, "random", 25, rng=0)
        coarse = mean_error_at_rate(hf, values, 0.01, 20, trials=5, rng=1)
        fine = mean_error_at_rate(hf, values, 0.4, 20, trials=5, rng=2)
        assert fine < coarse

    def test_error_at_rate_invalid_rate(self):
        values = np.arange(1000)
        hf = build_heapfile(values, "random", 25, rng=0)
        with pytest.raises(ParameterError):
            error_at_rate(hf, values, 0.0, 10)

    def test_cvb_cost_reports_consistent_fields(self):
        values = np.arange(1, 30_001)
        hf = build_heapfile(values, "random", 25, rng=3)
        cost = cvb_sampling_cost(hf, values, k=10, f=0.3, rng=4)
        assert cost.tuples_sampled == pytest.approx(
            cost.sampling_rate * values.size
        )
        assert cost.blocks_sampled * 25 >= cost.tuples_sampled

    def test_mean_cvb_cost_averages(self):
        values = np.arange(1, 30_001)
        cost = mean_cvb_cost(
            make_heapfile=lambda r: build_heapfile(values, "random", 25, rng=r),
            sorted_values=values,
            k=10,
            f=0.3,
            trials=2,
            rng=5,
        )
        assert cost.converged
        assert 0 < cost.sampling_rate <= 1

    def test_mean_cvb_cost_invalid_trials(self):
        values = np.arange(100)
        with pytest.raises(ParameterError):
            mean_cvb_cost(lambda r: None, values, 5, 0.2, trials=0)


BAD_TRUTHS = {
    "unsorted": np.array([3.0, 1.0, 2.0] * 100),
    "two_d": np.arange(300.0).reshape(3, 100),
    "nan": np.append(np.arange(299.0), np.nan),
    "inf": np.append(np.arange(299.0), np.inf),
    "empty": np.array([], dtype=np.float64),
}

_HEAPFILE = build_heapfile(np.arange(300), "random", 10, rng=0)


def _make_heapfile(rng):
    return build_heapfile(np.arange(300), "random", 10, rng=rng)


#: The public runner entry points that take one sample or one CVB run.
SINGLE = {
    "error_at_rate": lambda truth: error_at_rate(
        _HEAPFILE, truth, 0.5, 5, rng=1
    ),
    "cvb_sampling_cost": lambda truth: cvb_sampling_cost(
        _HEAPFILE, truth, k=5, f=0.5, rng=1
    ),
}

#: The public runner entry points that fan trials out over a pool.
POOLED = {
    "mean_error_at_rate": lambda truth, pool: mean_error_at_rate(
        _HEAPFILE, truth, 0.5, 5, trials=4, rng=1, pool=pool
    ),
    "required_blocks_for_error": lambda truth, pool: required_blocks_for_error(
        _HEAPFILE, truth, 5, 0.5, trials=4, rng=1, pool=pool
    ),
    "mean_cvb_cost": lambda truth, pool: mean_cvb_cost(
        _make_heapfile, truth, 5, 0.5, trials=4, rng=1, pool=pool
    ),
}


class TestGroundTruthChecked:
    """Every entry point rejects a bad ground truth before any trial runs."""

    @pytest.fixture
    def no_trials(self, monkeypatch):
        """Fail the test if any sample is drawn or trial dispatched."""

        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the truth was checked")

        for name in ("run_trials", "sample_blocks", "CVBSampler"):
            monkeypatch.setattr(runner, name, forbidden)

    @pytest.mark.parametrize("bad", sorted(BAD_TRUTHS))
    @pytest.mark.parametrize("entry", sorted(SINGLE))
    def test_bad_truth_raises_before_sampling(self, no_trials, entry, bad):
        with pytest.raises(ParameterError):
            SINGLE[entry](BAD_TRUTHS[bad])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", sorted(BAD_TRUTHS))
    @pytest.mark.parametrize("entry", sorted(POOLED))
    def test_bad_truth_raises_before_any_trial(
        self, no_trials, entry, bad, workers
    ):
        with TrialPool(max_workers=workers) as pool:
            with pytest.raises(ParameterError):
                POOLED[entry](BAD_TRUTHS[bad], pool)

    def test_checked_truth_gives_the_same_error_as_an_int_column(self):
        """The float64 cast of the truth changes no measured value."""
        values = np.repeat(np.arange(50), 40)
        hf = build_heapfile(values, "random", 20, rng=2)
        as_int = mean_error_at_rate(hf, values, 0.2, 8, trials=3, rng=3)
        as_float = mean_error_at_rate(
            hf, values.astype(np.float64), 0.2, 8, trials=3, rng=3
        )
        assert as_int == as_float
