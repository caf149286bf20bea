"""Smoke tests for the figure series builders, at a micro scale.

The benchmarks run the figures at full (default) scale; these tests use a
tiny custom :class:`ExperimentScale` so the whole file runs in seconds and
failures localise to the series-builder plumbing rather than statistics.
"""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.figures import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9_10,
    figure11_12,
    figures_3_and_4,
)

MICRO = ExperimentScale(
    name="micro",
    n=20_000,
    n_sweep=(10_000, 20_000),
    k=10,
    bins_sweep=(5, 10),
    blocking_factor=25,
    record_sizes=(32, 128),
    trials=2,
    rates=(0.05, 0.2),
    f_target=0.3,
    f_bins=0.3,
)


class TestFigureBuilders:
    def test_figures_3_and_4(self):
        result = figures_3_and_4(scale=MICRO, seed=0)
        assert len(result["rate"].x) == 2
        assert len(result["blocks"].x) == 2
        assert all(0 < r <= 1 for r in result["rate"].y)
        assert all(b >= 1 for b in result["blocks"].y)
        assert result["scale"] == "micro"

    def test_figure5(self):
        result = figure5(scale=MICRO, seed=0, zs=(0, 2))
        assert len(result["series"]) == 2
        for series in result["series"]:
            assert len(series.x) == len(MICRO.rates)
            assert all(e >= 0 for e in series.y)

    def test_figure6(self):
        result = figure6(scale=MICRO, seed=0)
        assert list(result["series"].x) == list(MICRO.bins_sweep)
        assert all(0 < r <= 1 for r in result["series"].y)

    def test_figure7(self):
        result = figure7(scale=MICRO, seed=0)
        labels = [s.label for s in result["series"]]
        assert labels == ["random", "partial"]

    def test_figure8(self):
        result = figure8(scale=MICRO, seed=0)
        assert list(result["blocks"].x) == list(MICRO.record_sizes)
        assert all(b >= 1 for b in result["blocks"].y)

    def test_figure9_10(self):
        result = figure9_10("zipf2", scale=MICRO, seed=0)
        assert result["num_distinct"] > 0
        assert len(result["estimate"].y) == len(MICRO.rates)
        # Real series is constant.
        assert len(set(result["real"].y)) == 1

    def test_figure9_10_parallel_equals_serial(self):
        """The distinct-value sweep behind Figures 9-12 fans its trials
        out through a TrialPool; 2 workers must give the serial series."""
        serial = figure9_10("zipf2", scale=MICRO, seed=0, workers=1)
        parallel = figure9_10(
            "zipf2", scale=MICRO, seed=0, workers=2, chunk_size=1
        )
        for key in ("real", "sample", "estimate", "err_sample",
                    "err_estimate"):
            assert parallel[key] == serial[key], key
        assert parallel == serial

    def test_figure11_12(self):
        result = figure11_12("unif_dup", scale=MICRO, seed=0)
        assert all(e >= 0 for e in result["err_estimate"].y)

    def test_string_scale_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        # Passing the name works and threads through to the metadata.
        result = figure9_10("zipf2", scale=None, seed=0)
        assert result["scale"] == "small"

    def test_determinism(self):
        a = figures_3_and_4(scale=MICRO, seed=5)
        b = figures_3_and_4(scale=MICRO, seed=5)
        assert a["rate"].y == b["rate"].y
        assert a["blocks"].y == b["blocks"].y
