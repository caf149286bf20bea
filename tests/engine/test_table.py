"""Tests for the Table/Column abstractions."""

import numpy as np
import pytest

from repro.engine.table import Column, Table
from repro.exceptions import CatalogError, ParameterError


class TestColumn:
    def test_basic(self):
        col = Column("price", np.array([3, 1, 2]))
        assert col.num_rows == 3
        np.testing.assert_array_equal(col.sorted_values(), [1, 2, 3])

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            Column("", np.arange(3))

    def test_multidimensional_rejected(self):
        with pytest.raises(ParameterError):
            Column("x", np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected_by_name(self, bad):
        """Rejected at construction, not later by whichever page a sample
        happens to read."""
        values = np.arange(200_000, dtype=np.float64)
        values[123_456] = bad
        with pytest.raises(ParameterError, match="column 'price'"):
            Table("t", {"price": values})


class TestTable:
    def test_add_and_fetch(self):
        t = Table("orders", {"qty": np.arange(10)})
        assert t.num_rows == 10
        assert t.column("qty").num_rows == 10
        assert t.column_names == ["qty"]

    def test_duplicate_column_rejected(self):
        t = Table("orders", {"qty": np.arange(10)})
        with pytest.raises(CatalogError):
            t.add_column("qty", np.arange(10))

    def test_row_count_mismatch_rejected(self):
        t = Table("orders", {"qty": np.arange(10)})
        with pytest.raises(ParameterError):
            t.add_column("price", np.arange(5))

    def test_missing_column_rejected(self):
        t = Table("orders")
        with pytest.raises(CatalogError):
            t.column("ghost")

    def test_empty_table(self):
        t = Table("empty")
        assert t.num_rows == 0
        assert t.column_names == []

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError):
            Table("")

    def test_to_heapfile_roundtrip(self):
        values = np.arange(1000)
        t = Table("orders", {"qty": values})
        hf = t.to_heapfile("qty", layout="random", rng=0, blocking_factor=25)
        assert hf.num_records == 1000
        assert hf.blocking_factor == 25
        np.testing.assert_array_equal(
            np.sort(hf.values_unaccounted()), values
        )
