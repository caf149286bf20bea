"""Tests for the exception hierarchy.

Two contracts matter to callers: every deliberate error is catchable via
``except ReproError`` (one base class for the whole library), and the
fault-layer exceptions survive pickling — :class:`TrialPool` workers raise
them in child processes and the parent must receive them intact.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import (
    BuildAbortedError,
    CatalogError,
    EmptyDataError,
    InfeasibleBoundError,
    PageCorruptionError,
    ParameterError,
    ReproError,
    StatisticsNotFoundError,
    StorageError,
    TransientIOError,
    UnknownLayoutError,
)

ALL_CONCRETE = [
    ParameterError("bad param"),
    EmptyDataError("no data"),
    InfeasibleBoundError("bound infeasible"),
    BuildAbortedError("budget gone", snapshot={"failed_reads": 3}),
    StorageError("storage"),
    UnknownLayoutError("layout?"),
    TransientIOError("flaky", page_id=7, attempt=2),
    PageCorruptionError("bad checksum", page_id=9),
    CatalogError("catalog"),
    StatisticsNotFoundError("missing"),
]


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc", ALL_CONCRETE, ids=lambda e: type(e).__name__
    )
    def test_everything_is_a_repro_error(self, exc):
        with pytest.raises(ReproError):
            raise exc

    def test_storage_family(self):
        for exc_type in (
            UnknownLayoutError,
            TransientIOError,
            PageCorruptionError,
        ):
            assert issubclass(exc_type, StorageError)

    def test_dual_inheritance_keeps_idiomatic_catches_working(self):
        with pytest.raises(ValueError):
            raise ParameterError("still a ValueError")
        with pytest.raises(IOError):
            raise TransientIOError("still an IOError")
        with pytest.raises(KeyError):
            raise StatisticsNotFoundError("still a KeyError")


class TestPicklability:
    @pytest.mark.parametrize(
        "exc", ALL_CONCRETE, ids=lambda e: type(e).__name__
    )
    def test_round_trip_preserves_type_and_message(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        assert clone.args == exc.args

    def test_round_trip_preserves_fault_attributes(self):
        t = pickle.loads(
            pickle.dumps(TransientIOError("flaky", page_id=7, attempt=2))
        )
        assert (t.page_id, t.attempt) == (7, 2)
        c = pickle.loads(pickle.dumps(PageCorruptionError("bad", page_id=9)))
        assert c.page_id == 9
        b = pickle.loads(
            pickle.dumps(BuildAbortedError("over", snapshot={"skipped_pages": 5}))
        )
        assert b.snapshot == {"skipped_pages": 5}

    def test_build_aborted_crosses_a_real_process_boundary(self):
        """The exact path TrialPool uses: a worker raises, the parent
        receives the same exception with its payload intact."""
        with ProcessPoolExecutor(max_workers=1) as executor:
            future = executor.submit(_raise_build_aborted)
            with pytest.raises(BuildAbortedError) as exc_info:
                future.result()
        assert exc_info.value.snapshot == {"failed_reads": 11}
        assert "boom" in str(exc_info.value)


def _raise_build_aborted():
    raise BuildAbortedError("boom", snapshot={"failed_reads": 11})
