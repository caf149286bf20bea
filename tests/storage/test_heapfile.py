"""Tests for the heap file and its page-read accounting."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.storage import HeapFile, RecordSpec


class TestGeometry:
    def test_page_count(self):
        hf = HeapFile(np.arange(105), blocking_factor=10)
        assert hf.num_pages == 11
        assert hf.num_records == 105
        assert hf.blocking_factor == 10

    def test_exact_multiple(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        assert hf.num_pages == 10

    def test_page_bounds(self):
        hf = HeapFile(np.arange(105), blocking_factor=10)
        assert hf.page_bounds(0) == (0, 10)
        assert hf.page_bounds(10) == (100, 105)  # short last page

    def test_page_bounds_out_of_range(self):
        hf = HeapFile(np.arange(10), blocking_factor=10)
        with pytest.raises(ParameterError):
            hf.page_bounds(1)

    def test_two_dimensional_values_rejected(self):
        with pytest.raises(ParameterError):
            HeapFile(np.zeros((3, 3)), blocking_factor=2)

    def test_bad_blocking_factor_rejected(self):
        with pytest.raises(ParameterError):
            HeapFile(np.arange(10), blocking_factor=0)

    def test_from_values_uses_spec_blocking_factor(self):
        spec = RecordSpec(record_size=64)
        hf = HeapFile.from_values(np.arange(1000), spec=spec, rng=0)
        assert hf.blocking_factor == spec.blocking_factor

    def test_from_values_blocking_factor_override(self):
        hf = HeapFile.from_values(np.arange(1000), blocking_factor=7, rng=0)
        assert hf.blocking_factor == 7


class TestReadOnlyPages:
    """No array a heap file hands out can write through to the file."""

    READS = {
        "read_page": lambda hf: hf.read_page(2),
        "read_pages_empty": lambda hf: hf.read_pages([]),
        "scan": lambda hf: hf.scan(),
        "values_unaccounted": lambda hf: hf.values_unaccounted(),
        "iter_pages": lambda hf: next(hf.iter_pages()),
    }

    @pytest.mark.parametrize("read", sorted(READS))
    def test_writing_into_a_read_raises(self, read):
        hf = HeapFile(np.arange(100.0), blocking_factor=10)
        payload = self.READS[read](hf)
        with pytest.raises(ValueError, match="read-only"):
            payload[...] = 99.0
        assert hf.values_unaccounted().tolist() == list(np.arange(100.0))

    def test_callers_array_keeps_its_flags(self):
        values = np.arange(100.0)
        HeapFile(values, blocking_factor=10)
        assert values.flags.writeable

    def test_sorted_file_shares_a_sorted_column(self):
        column = np.arange(1_000)
        hf = HeapFile.from_values(column, layout="sorted", blocking_factor=10)
        assert np.shares_memory(hf.values_unaccounted(), column)
        with pytest.raises(ValueError, match="read-only"):
            hf.read_page(0)[0] = 99
        assert column[0] == 0

    @pytest.mark.parametrize(
        "protocol", sorted({pickle.DEFAULT_PROTOCOL, 4, 5})
    )
    def test_unpickled_file_is_read_only(self, protocol):
        hf = HeapFile.from_values(np.arange(1_000), rng=0, blocking_factor=10)
        copy = pickle.loads(pickle.dumps(hf, protocol=protocol))
        assert not copy.values_unaccounted().flags.writeable
        assert np.array_equal(copy.scan(), hf.values_unaccounted())
        assert copy.blocking_factor == 10


class TestAccessAndAccounting:
    def test_read_page_returns_payload_and_charges(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        payload = hf.read_page(3)
        np.testing.assert_array_equal(payload, np.arange(30, 40))
        assert hf.iostats.page_reads == 1
        assert hf.iostats.pages_touched == 1

    def test_read_pages_charges_each(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        payload = hf.read_pages([0, 5, 5])
        assert payload.size == 30
        assert hf.iostats.page_reads == 3
        assert hf.iostats.pages_touched == 2  # page 5 counted once

    def test_read_pages_empty(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        assert hf.read_pages([]).size == 0
        assert hf.iostats.page_reads == 0

    def test_read_record_charges_whole_page(self):
        """The record-level cost model: one tuple costs one page read."""
        hf = HeapFile(np.arange(100), blocking_factor=10)
        assert hf.read_record(55) == 55
        assert hf.iostats.page_reads == 1

    def test_read_record_out_of_range(self):
        hf = HeapFile(np.arange(10), blocking_factor=5)
        with pytest.raises(ParameterError):
            hf.read_record(10)

    def test_scan_charges_all_pages(self):
        hf = HeapFile(np.arange(105), blocking_factor=10)
        values = hf.scan()
        assert values.size == 105
        assert hf.iostats.page_reads == 11

    def test_iter_pages_covers_everything(self):
        hf = HeapFile(np.arange(105), blocking_factor=10)
        total = sum(p.size for p in hf.iter_pages())
        assert total == 105
        assert hf.iostats.page_reads == 11

    def test_values_unaccounted_is_free(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        hf.values_unaccounted()
        assert hf.iostats.page_reads == 0

    def test_iostats_reset(self):
        hf = HeapFile(np.arange(100), blocking_factor=10)
        hf.read_page(0)
        hf.iostats.reset()
        assert hf.iostats.page_reads == 0
        assert hf.iostats.pages_touched == 0


class TestLayoutIntegration:
    def test_random_layout_preserves_multiset(self):
        values = np.arange(1000)
        hf = HeapFile.from_values(values, layout="random", rng=0)
        np.testing.assert_array_equal(
            np.sort(hf.values_unaccounted()), values
        )

    def test_sorted_layout_orders_pages(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 10_000, size=1000)
        hf = HeapFile.from_values(values, layout="sorted", blocking_factor=10)
        first = hf.read_page(0)
        last = hf.read_page(hf.num_pages - 1)
        assert first.max() <= last.min()

    def test_unknown_layout_rejected(self):
        from repro.exceptions import UnknownLayoutError

        with pytest.raises(UnknownLayoutError):
            HeapFile.from_values(np.arange(10), layout="bogus")
