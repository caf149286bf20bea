"""Tests for histogram serialization and catalog-page budgeting."""

import numpy as np
import pytest

from repro.core.compressed import CompressedHistogram
from repro.core.equiwidth import EquiWidthHistogram
from repro.core.histogram import EquiHeightHistogram
from repro.core.serialization import (
    fit_to_page,
    histogram_from_dict,
    histogram_from_json,
    histogram_to_dict,
    histogram_to_json,
    max_bins_for_page,
)
from repro.exceptions import ParameterError


def skewed_values():
    return np.concatenate([np.full(3000, 77), np.arange(1, 2001)])


class TestRoundTrips:
    def test_equi_height_dict_roundtrip(self):
        hist = EquiHeightHistogram.from_values(skewed_values(), 16)
        rebuilt = histogram_from_dict(histogram_to_dict(hist))
        assert rebuilt == hist

    def test_equi_height_preserves_eq_counts(self):
        hist = EquiHeightHistogram.from_values(skewed_values(), 16)
        rebuilt = histogram_from_dict(histogram_to_dict(hist))
        np.testing.assert_array_equal(rebuilt.eq_counts, hist.eq_counts)

    def test_equi_height_json_roundtrip(self):
        hist = EquiHeightHistogram.from_values(np.arange(500), 8)
        rebuilt = histogram_from_json(histogram_to_json(hist))
        assert rebuilt == hist

    def test_equi_width_roundtrip(self):
        hist = EquiWidthHistogram.from_values(skewed_values(), 12)
        rebuilt = histogram_from_dict(histogram_to_dict(hist))
        np.testing.assert_array_equal(rebuilt.edges, hist.edges)
        np.testing.assert_array_equal(rebuilt.counts, hist.counts)

    def test_compressed_roundtrip(self):
        hist = CompressedHistogram.from_values(skewed_values(), 10)
        rebuilt = histogram_from_dict(histogram_to_dict(hist))
        assert rebuilt.total == hist.total
        assert rebuilt.singletons == hist.singletons
        assert rebuilt.estimate_range(1, 2000) == pytest.approx(
            hist.estimate_range(1, 2000)
        )

    def test_estimates_survive_roundtrip(self):
        hist = EquiHeightHistogram.from_values(skewed_values(), 16)
        rebuilt = histogram_from_json(histogram_to_json(hist))
        for lo, hi in [(1, 100), (77, 77), (500, 1500)]:
            assert rebuilt.estimate_range(lo, hi) == pytest.approx(
                hist.estimate_range(lo, hi)
            )

    def test_unknown_type_rejected(self):
        with pytest.raises(ParameterError):
            histogram_to_dict(object())
        with pytest.raises(ParameterError):
            histogram_from_dict({"type": "alien"})
        with pytest.raises(ParameterError):
            histogram_from_dict({"no": "type"})

    def test_bad_json_rejected(self):
        with pytest.raises(ParameterError):
            histogram_from_json("{not json")

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "compressed"},
            {"type": "compressed", "singletons": 5, "total": 0},
            {"type": "compressed", "singletons": [5], "total": 5},
            {"type": "compressed", "singletons": [{"value": 1, "count": 2.5}],
             "total": 2},
            {"type": "compressed", "singletons": [], "total": "0"},
            {"type": "equi_width", "edges": "01", "counts": [1]},
            {"type": "equi_width", "edges": [0, 1], "counts": [None]},
        ],
    )
    def test_wrong_typed_fields_rejected(self, payload):
        with pytest.raises(ParameterError):
            histogram_from_dict(payload)


class TestPageBudget:
    def test_int32_budget_matches_paper(self):
        """Section 7.1: one 8 KB page holds ~600 bins for an integer column."""
        budget = max_bins_for_page("int32")
        assert 550 <= budget <= 700

    def test_wider_types_fit_fewer(self):
        assert max_bins_for_page("int64") < max_bins_for_page("int32")
        assert max_bins_for_page("float64") == max_bins_for_page("int64")

    def test_unknown_type_rejected(self):
        with pytest.raises(ParameterError):
            max_bins_for_page("varchar")

    def test_fit_to_page_noop_when_small(self):
        values = np.arange(10_000)
        hist = EquiHeightHistogram.from_sorted_values(values, 100)
        assert fit_to_page(hist, values) is hist

    def test_fit_to_page_rebuckets_oversized(self):
        values = np.arange(10_000)
        hist = EquiHeightHistogram.from_sorted_values(values, 2000)
        fitted = fit_to_page(hist, values, "int32")
        assert fitted.k == max_bins_for_page("int32")
        assert fitted.total == hist.total
