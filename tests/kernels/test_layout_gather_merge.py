"""The layouts, the page gather and the merge against the code they replaced.

Each of these paths allocates only its result.  The references here are
the permutation-gather and copy-then-sort forms they replaced, and the
kernel oracles of ``tests/kernels/oracle.py``; the results must be
byte-identical: same dtype, same bytes (so a ``-0.0`` cannot turn into
``0.0``), and, for the random layout, the same generator state after the
call, so everything drawn after a layout is drawn the same.  The
hypothesis sweeps of ``gather_pages`` and ``merge_sorted`` are the
differential tests in ``test_equivalence.py``; here are the fixed cases.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.storage.layout import random_layout, sorted_layout

from . import oracle
from .conftest import datasets

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def assert_same_bytes(reference: np.ndarray, got: np.ndarray) -> None:
    assert got.dtype == reference.dtype, (got.dtype, reference.dtype)
    assert got.shape == reference.shape, (got.shape, reference.shape)
    assert got.tobytes() == reference.tobytes()


def _column(dtype: str, presorted: bool) -> np.ndarray:
    values = np.random.default_rng(3).zipf(1.8, 5_000).astype(dtype)
    return np.sort(values) if presorted else values


class TestRandomLayout:
    @given(values=datasets(min_size=0), seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_equals_a_gather_through_a_permutation(self, values, seed):
        replaced = np.random.default_rng(seed)
        generator = np.random.default_rng(seed)
        reference = values[replaced.permutation(values.size)]
        assert_same_bytes(reference, random_layout(values, generator))
        # The same draws were consumed: the next one agrees.
        assert generator.random() == replaced.random()

    def test_strided_input(self):
        values = np.arange(40.0)[::3]
        reference = values[np.random.default_rng(5).permutation(values.size)]
        assert_same_bytes(reference, random_layout(values, 5))

    def test_input_is_left_alone(self):
        values = np.arange(1_000)
        layout = random_layout(values, 0)
        assert np.array_equal(values, np.arange(1_000))
        assert not np.shares_memory(layout, values)


class TestSortedLayout:
    @pytest.mark.parametrize("dtype", ["int64", "float64"])
    @pytest.mark.parametrize("presorted", [False, True])
    def test_equals_np_sort(self, dtype, presorted):
        values = _column(dtype, presorted)
        assert_same_bytes(np.sort(values), sorted_layout(values))

    @pytest.mark.parametrize("presorted", [False, True])
    def test_is_read_only(self, presorted):
        layout = sorted_layout(_column("float64", presorted))
        with pytest.raises(ValueError, match="read-only"):
            layout[0] = -1.0

    @pytest.mark.parametrize("presorted", [False, True])
    def test_shares_memory_only_with_sorted_input(self, presorted):
        values = _column("int64", presorted)
        assert np.shares_memory(sorted_layout(values), values) == presorted
        # The caller's array keeps its own flags.
        assert values.flags.writeable


class TestGatherPages:
    CASES = {
        # (number of values, blocking factor, page ids)
        "full_pages": (1_000, 10, [7, 0, 99, 42]),
        "duplicate_ids": (1_000, 10, [5, 5, 3, 5]),
        "short_last_page": (1_005, 10, [100, 2, 100]),
        "short_file_full_pages_only": (1_005, 10, [99, 0]),
        "empty_ids": (1_000, 10, []),
        "one_page_file": (7, 10, [0, 0]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("strided", [False, True])
    def test_equals_the_per_page_gather(self, case, strided):
        n, blocking_factor, page_ids = self.CASES[case]
        values = np.random.default_rng(1).normal(size=2 * n)
        values = values[::2] if strided else values[:n]
        ids = np.asarray(page_ids, dtype=np.int64)
        assert_same_bytes(
            oracle.gather_pages(values, ids, blocking_factor),
            kernels.gather_pages(values, ids, blocking_factor),
        )

    def test_strided_values_are_not_copied(self):
        """Full pages of a strided file are gathered as rows of a view."""
        values = np.arange(400_000.0)[::2]  # 1.6 MB, every other element
        ids = np.array([7, 0, 7], dtype=np.int64)
        tracemalloc.start()
        try:
            pages = kernels.gather_pages(values, ids, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_bytes(oracle.gather_pages(values, ids, 10), pages)
        assert peak < 64 * 1024, peak

    def test_result_is_a_fresh_array(self):
        values = np.arange(100.0)
        values.flags.writeable = False
        pages = kernels.gather_pages(values, np.array([3, 1]), 10)
        assert not np.shares_memory(pages, values)
        assert pages.flags.writeable


class TestMergeSorted:
    def test_signed_zero_ties_keep_their_order(self):
        a = np.array([-1.0, -0.0, 0.0, -0.0, 2.0])
        b = np.array([0.0, -0.0, 0.0, 1.0])
        reference = np.sort(np.concatenate((a, b)), kind="stable")
        merged = kernels.merge_sorted(a, b)
        assert_same_bytes(reference, merged)
        assert np.signbit(merged[1:7]).tolist() == [
            True, False, True, False, True, False,
        ]

    def test_long_signed_zero_runs(self):
        """Long enough that an unstable sort would reorder the zeros."""
        rng = np.random.default_rng(0)
        zeros = np.where(rng.random((2, 300)) < 0.5, -0.0, 0.0)
        a = np.concatenate(([-1.0], zeros[0], [2.0]))
        b = np.concatenate((zeros[1], [1.0]))
        reference = np.sort(np.concatenate((a, b)), kind="stable")
        assert_same_bytes(reference, kernels.merge_sorted(a, b))

    def test_integer_operands(self):
        a = np.array([1, 3, 3, 9], dtype=np.int64)
        b = np.array([0, 3, 10], dtype=np.int64)
        reference = np.sort(np.concatenate((a, b)), kind="stable")
        assert_same_bytes(reference, kernels.merge_sorted(a, b))

    def test_operands_are_left_alone(self):
        a, b = np.array([1.0, 4.0]), np.array([2.0, 3.0])
        kernels.merge_sorted(a, b)
        assert a.tolist() == [1.0, 4.0] and b.tolist() == [2.0, 3.0]
