"""Shared fixtures for the test suite.

Everything stochastic is seeded; fixtures return fresh generators so tests
cannot couple through shared RNG state.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.storage import HeapFile
from repro.workloads import make_dataset


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def distinct_values() -> np.ndarray:
    """10,000 fully distinct sorted integers."""
    return np.arange(1, 10_001, dtype=np.int64)


@pytest.fixture
def zipf_dataset():
    """A small Zipf Z=2 dataset (heavy duplicates)."""
    return make_dataset("zipf2", 20_000, rng=7)


@pytest.fixture
def unif_dup_dataset():
    """Unif/Dup: every value exactly 10 times."""
    return make_dataset("unif_dup", 20_000, rng=7, duplicates_per_value=10)


@pytest.fixture
def small_heapfile(distinct_values, rng) -> HeapFile:
    """A random-layout heap file of the distinct values, 25 tuples/page."""
    return HeapFile.from_values(
        distinct_values, layout="random", rng=rng, blocking_factor=25
    )


#: More threads than the machine has cores, so the scheduler preempts them.
CONTENDING_THREADS = max((os.cpu_count() or 1) + 2, 6)


def _preempting(names):
    """A trace function that yields the GIL before every bytecode of the
    functions called *names*: CPython switches threads only at some
    bytecodes, so ``self.total += 1`` alone never loses an update."""

    def local(frame, event, arg):
        if event == "opcode":
            time.sleep(0)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_name not in names:
            return None
        frame.f_trace_opcodes = True
        return local

    return tracer


@pytest.fixture
def contended():
    """Run ``work(index)`` on ``contended.threads`` threads at once.

    The interpreter's switch interval drops to *interval* seconds while
    they run, so a read-modify-write that no lock guards loses updates;
    with *preempt*, the named functions also yield between bytecodes.
    Both are restored afterwards.  Each thread is joined for at most
    *timeout* seconds, and an exception in one fails the test.
    """

    def run(work, *, interval=1e-6, preempt=(), timeout=30.0):
        errors = []

        def guarded(index):
            try:
                work(index)
            except BaseException as exc:  # re-raised in the test's thread
                errors.append(exc)

        threads = [
            threading.Thread(target=guarded, args=(index,), daemon=True)
            for index in range(CONTENDING_THREADS)
        ]
        previous, hook = sys.getswitchinterval(), threading.gettrace()
        sys.setswitchinterval(interval)
        if preempt:
            threading.settrace(_preempting(preempt))
        try:
            for thread in threads:
                thread.start()
        finally:
            threading.settrace(hook)
        try:
            for thread in threads:
                thread.join(timeout)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]

    run.threads = CONTENDING_THREADS
    return run
