"""Shared machinery for the production-vs-oracle differential harness.

The contract under test: every public kernel of :mod:`repro.core.kernels`,
and every batched storage/sampling path built on them, is **bit-identical**
to its reference oracle in :mod:`tests.kernels.oracle` — same output
arrays, same dtypes where callers compare them, same exceptions on
degenerate input, same RNG stream consumption, same IOStats and obs
metrics.  ``run_both`` executes a fresh closure once against the oracles
(``"scalar"``) and once against production (``"vector"``); the dataset
strategies generate the distributions the paper's experiments exercise
(Zipf, Unif/Dup) plus adversarial shapes (near-duplicate floats,
single-value columns, fully distinct columns).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from repro.core import kernels
from repro.storage import HeapFile

from . import oracle

#: ``"scalar"`` runs the oracles, ``"vector"`` runs production.
MODES = ("scalar", "vector")


@contextmanager
def implementation(mode: str) -> Iterator[None]:
    """Run a ``with`` block against the oracles or against production.

    ``"scalar"`` patches every oracle over its ``repro.core.kernels``
    namesake, which also makes :func:`heap_file` build the per-page oracle
    file class; ``"vector"`` runs production untouched.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "scalar":
        patch = mock.patch.multiple(kernels, **oracle.ORACLES)
    else:
        patch = nullcontext()
    with patch:
        yield


def _oracles_active() -> bool:
    """True inside ``implementation("scalar")``: the patch is the mode."""
    return kernels.gather_pages is oracle.gather_pages


def heap_file(values: np.ndarray, **kwargs) -> HeapFile:
    """``HeapFile.from_values`` in the active mode's file class."""
    cls = oracle.OracleHeapFile if _oracles_active() else HeapFile
    return cls.from_values(values, **kwargs)


#: Dataset families the strategies draw from; names show up in failure
#: reprs so a shrunk counterexample says which family broke.
DATASET_KINDS = ("zipf", "unif_dup", "near_dup", "single", "distinct")


def make_values(kind: str, n: int, seed: int) -> np.ndarray:
    """Materialise a deterministic dataset of *kind* with *n* values."""
    rng = np.random.default_rng(seed)
    if kind == "zipf":
        return rng.zipf(1.7, size=n).astype(np.int64)
    if kind == "unif_dup":
        return rng.integers(0, max(1, n // 10), size=n)
    if kind == "near_dup":
        # A handful of float anchors, some separated by one ulp: ties land
        # exactly on separator boundaries and adjacent separators coincide.
        anchors = np.array(
            [1.0, np.nextafter(1.0, 2.0), 1.5, -3.25, np.nextafter(-3.25, 0)]
        )
        return anchors[rng.integers(0, anchors.size, size=n)]
    if kind == "single":
        return np.full(n, 42.0 if seed % 2 else 7, dtype=np.float64 if seed % 2 else np.int64)
    if kind == "distinct":
        return rng.permutation(n).astype(np.int64) - n // 2
    raise AssertionError(f"unknown dataset kind {kind!r}")


@st.composite
def datasets(draw, min_size: int = 1, max_size: int = 2_000) -> np.ndarray:
    """A generated value column from one of :data:`DATASET_KINDS`."""
    kind = draw(st.sampled_from(DATASET_KINDS))
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return make_values(kind, n, seed)


@st.composite
def sorted_pairs(draw, max_size: int = 1_500) -> tuple[np.ndarray, np.ndarray]:
    """Two independently generated, sorted arrays (CVB merge operands)."""
    a = np.sort(draw(datasets(min_size=0, max_size=max_size)).astype(np.float64))
    b = np.sort(draw(datasets(min_size=0, max_size=max_size)).astype(np.float64))
    return a, b


def run_both(fn):
    """Run ``fn()`` once per mode; return ``{mode: result}``.

    *fn* must build all of its state from scratch on each call (fresh
    heap files via :func:`heap_file`, fresh generators) so the two
    executions differ only in the implementations they run.
    """
    results = {}
    for mode in MODES:
        with implementation(mode):
            results[mode] = fn()
    return results


def assert_arrays_identical(a: np.ndarray, b: np.ndarray) -> None:
    """Bit-identical array check: values (NaN-aware), shape, and dtype."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.dtype == b.dtype, f"dtype diverged: {a.dtype} vs {b.dtype}"
    assert a.shape == b.shape, f"shape diverged: {a.shape} vs {b.shape}"
    assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), (
        f"values diverged: {a!r} vs {b!r}"
    )


def assert_histograms_identical(h1, h2) -> None:
    """Field-by-field histogram identity (sharper than ``==`` on failure)."""
    assert_arrays_identical(h1.separators, h2.separators)
    assert_arrays_identical(h1.counts, h2.counts)
    assert_arrays_identical(h1.eq_counts, h2.eq_counts)
    assert h1.min_value == h2.min_value
    assert h1.max_value == h2.max_value
