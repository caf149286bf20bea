"""Trace spans: a structured, deterministic event log of where a build
spends its pages and its time.

The tracing half of :mod:`repro.obs`.  Instrumented code opens spans::

    from repro.obs import trace

    with trace.span("cvb.iteration", iostats=heapfile.iostats, index=3) as sp:
        ...
        sp.set(observed_error=observed, passed=passed)

and a :class:`TraceRecorder`, when active, turns each span into a
:class:`SpanRecord` carrying:

- the span **name** (validated against :data:`repro.obs.catalog.SPANS`) and
  its attributes,
- sequential **span ids** plus the enclosing span's id, so the tree can be
  reconstructed,
- the **wall-clock** start time (``time.time``) and a **monotonic**
  duration (``time.perf_counter``),
- an optional **IOStats delta**: pass any object with a numeric
  ``snapshot() -> dict`` (duck-typed so this module stays dependency-free)
  and the record carries per-counter differences across the span.

When no recorder is active — the default — :func:`span` returns a shared
no-op context manager, so tracing costs one dict lookup per span on the
disabled path and can never perturb results: spans consume no randomness
and mutate nothing they observe.

Records are appended in span *completion* order, which is deterministic for
the single-threaded builds this library runs; with wall times redacted
(:meth:`TraceRecorder.events`) a trace of a seeded build is byte-stable and
golden-file comparable.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..exceptions import ParameterError
from .catalog import SPANS

__all__ = [
    "SCHEMA_VERSION",
    "SpanRecord",
    "TraceRecorder",
    "span",
    "tracing",
    "active_recorder",
]

#: Timing keys stripped by :meth:`TraceRecorder.events` for deterministic
#: comparison of traces.
TIMING_KEYS = ("t_wall", "duration_s")

#: Version stamp carried by every JSONL span record (JSON lines have no
#: header, so each record is self-describing).  Bump on any breaking change
#: to the record layout.
SCHEMA_VERSION = 1


@dataclass
class SpanRecord:
    """One completed span, as appended to the recorder's event log."""

    span_id: int
    parent_id: int | None
    name: str
    attrs: dict
    t_wall: float
    duration_s: float
    io_delta: dict | None = None

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form of the record."""
        out = {
            "schema_version": SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": _jsonable(self.attrs),
            "t_wall": self.t_wall,
            "duration_s": self.duration_s,
        }
        if self.io_delta is not None:
            out["io_delta"] = self.io_delta
        return out


def _jsonable(attrs: dict) -> dict:
    """Coerce attribute values to JSON-safe scalars (repr as a fallback)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, bool) or value is None:
            out[key] = value
        elif isinstance(value, (int, float, str)):
            out[key] = value
        elif hasattr(value, "item"):  # numpy scalars
            out[key] = value.item()
        else:
            out[key] = repr(value)
    return out


class TraceRecorder:
    """Collects :class:`SpanRecord` events for one traced run.

    Parameters
    ----------
    strict:
        When True (default), span names must be declared in
        :data:`repro.obs.catalog.SPANS`, keeping the documented span
        taxonomy exhaustive.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.records: list[SpanRecord] = []
        self._next_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        if self.strict and name not in SPANS:
            raise ParameterError(
                f"span {name!r} is not declared in repro.obs.catalog.SPANS"
            )
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, record: SpanRecord) -> None:
        self._stack.pop()
        self.records.append(record)

    @property
    def current_span_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` at the root."""
        return self._stack[-1] if self._stack else None

    def events(self, redact_timing: bool = True) -> list[dict]:
        """The event log as plain dicts, optionally without wall/duration
        fields — the deterministic view used by golden tests."""
        out = []
        for record in self.records:
            event = record.to_dict()
            if redact_timing:
                for key in TIMING_KEYS:
                    event.pop(key, None)
            out.append(event)
        return out

    def to_jsonl(self, redact_timing: bool = False) -> str:
        """The event log as one JSON object per line; every record carries
        ``schema_version`` (:data:`SCHEMA_VERSION`)."""
        return "".join(
            json.dumps(event, sort_keys=True) + "\n"
            for event in self.events(redact_timing=redact_timing)
        )

    def write(self, path: str, redact_timing: bool = False) -> None:
        """Durably write the event log to *path* as JSON lines."""
        # Imported lazily: repro.durability itself emits through repro.obs,
        # so a module-level import here would cycle.
        from ..durability import atomic_write_text

        atomic_write_text(path, self.to_jsonl(redact_timing=redact_timing))


class _Span:
    """A live span: context manager that reports to a recorder on exit."""

    __slots__ = (
        "_recorder", "_name", "_attrs", "_io", "_io_before",
        "_span_id", "_parent_id", "_t_wall", "_t0",
    )

    def __init__(self, recorder: TraceRecorder, name: str, io, attrs: dict):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._io = io
        self._io_before: dict | None = None
        self._span_id = -1
        self._parent_id: int | None = None
        self._t_wall = 0.0
        self._t0 = 0.0

    def set(self, **attrs) -> None:
        """Attach or update attributes after the span has been opened."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        self._parent_id = self._recorder.current_span_id
        self._span_id = self._recorder._open(self._name)
        if self._io is not None:
            self._io_before = dict(self._io.snapshot())
        # Wall-clock observability: span timestamps/durations are trace
        # annotations, excluded from all logical comparisons.
        self._t_wall = time.time()  # repro: noqa[DET002]
        self._t0 = time.perf_counter()  # repro: noqa[DET002]
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0  # repro: noqa[DET002]
        io_delta = None
        if self._io is not None and self._io_before is not None:
            after = self._io.snapshot()
            io_delta = {
                key: after[key] - self._io_before.get(key, 0)
                for key in after
                if isinstance(after[key], (int, float))
            }
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._recorder._close(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                attrs=self._attrs,
                t_wall=self._t_wall,
                duration_s=duration,
                io_delta=io_delta,
            )
        )
        return False


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        """Discard attributes (tracing is off)."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

_RECORDER: TraceRecorder | None = None


def active_recorder() -> TraceRecorder | None:
    """The currently recording :class:`TraceRecorder`, or ``None``."""
    return _RECORDER


@contextmanager
def tracing(
    recorder: TraceRecorder | None = None,
) -> Iterator[TraceRecorder]:
    """Record spans inside a ``with`` block, restoring the previous
    recorder (if any) on exit."""
    global _RECORDER
    previous = _RECORDER
    recorder = recorder if recorder is not None else TraceRecorder()
    _RECORDER = recorder
    try:
        yield recorder
    finally:
        _RECORDER = previous


def span(name: str, iostats=None, **attrs):
    """Open a trace span named *name* (a context manager).

    *iostats* may be any object with a numeric ``snapshot() -> dict`` (in
    practice a :class:`~repro.storage.iostats.IOStats`); the completed
    record then carries the per-counter delta across the span.  Extra
    keyword arguments become span attributes; more can be attached later
    via ``.set(...)`` on the yielded span.  While no recorder is active the
    returned object is a shared no-op.
    """
    recorder = _RECORDER
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, iostats, dict(attrs))
