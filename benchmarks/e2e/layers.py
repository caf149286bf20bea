"""Timing wrappers around each layer's public functions, for the traced run.

The traced run installs these wrappers in the process under test (the
``repro serve`` child, or the figure-sweep child) before it does any work.
Every wrapped call records one span — name, start, end, parent span, and the
root span of its call stack — in a per-thread list kept in memory; the
process writes them all as JSON lines when it exits.  Nothing here touches
``repro.obs.trace`` or telemetry: the program's own spans stay off.

A layer is named after its module.  Its *self time* is the time its spans
cover minus the part their child spans cover, so a request's wall time splits
across layers without double counting.

A function imported by name is looked up in the importing module, not in the
defining one (``repro.experiments.runner.sample_blocks``,
``repro.core.adaptive.fractional_max_error``), so :func:`install` rebinds
every ``repro`` module global that refers to a wrapped function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

#: Nanosecond clock shared by every process on the machine, so the benchmark
#: can cut a child's spans to its own load-phase window.
clock = functools.partial(time.clock_gettime_ns, time.CLOCK_MONOTONIC)


# ----------------------------------------------------------------------
# Counters some wrapped calls attach to their span
# ----------------------------------------------------------------------


def _attr_delta(attr: str, key: str):
    """Counter: growth of ``self.<attr>`` across the call."""

    def before(args, kwargs):
        return getattr(args[0], attr)

    def after(state, args, kwargs, result):
        return {key: getattr(args[0], attr) - state}

    return before, after


def _arg_len(index: int, key: str):
    """Counter: length of positional argument *index*."""

    def after(state, args, kwargs, result):
        return {key: len(args[index])}

    return None, after


def _sample_blocks_pages():
    """Counter: pages drawn by ``sample_blocks(heapfile, num_blocks, ...)``."""

    def after(state, args, kwargs, result):
        blocks = args[1] if len(args) > 1 else kwargs["num_blocks"]
        return {"pages": int(blocks)}

    return None, after


def _cvb_outcome():
    """Counter: CVB iterations and convergence of one build."""

    def after(state, args, kwargs, result):
        return {
            "iterations": len(result.iterations),
            "converged": int(result.converged),
        }

    return None, after


#: Layer -> ``(module:qualname, counter)`` of each wrapped public function.
#: A counter is None, a ``(before, after)`` pair whose ``after`` returns the
#: counts to attach to the span, or ``"slot"`` for a context-manager factory
#: whose entry (the wait for an admission slot) is what gets timed.
LAYERS: dict[str, tuple[tuple[str, object], ...]] = {
    "serve.server": (("repro.serve.server:StatsServer.handle", None),),
    "serve.cache": (
        ("repro.serve.cache:StatsCache.lookup", None),
        ("repro.serve.cache:StatsCache.install", None),
    ),
    "serve.bucket_index": (
        ("repro.serve.bucket_index:BucketIndex.estimate_range",
         _attr_delta("probes", "probes")),
        ("repro.serve.bucket_index:BucketIndex.estimate_quantile",
         _attr_delta("probes", "probes")),
    ),
    "serve.admission": (("repro.serve.admission:AdmissionController.slot", "slot"),),
    "engine.maintenance": (
        ("repro.engine.maintenance:AutoStatistics.ensure_fresh", None),
        ("repro.engine.maintenance:AutoStatistics.analyze", None),
    ),
    "engine.statistics": (
        ("repro.engine.statistics:StatisticsManager.analyze", None),
    ),
    "engine.density": (
        ("repro.engine.density:selfjoin_density_from_sample", None),
    ),
    "storage.heapfile": (
        ("repro.storage.heapfile:HeapFile.from_values", None),
        ("repro.storage.heapfile:HeapFile.read_pages", _arg_len(1, "pages")),
    ),
    "storage.layout": (("repro.storage.layout:apply_layout", None),),
    "sampling.block_sampler": (
        ("repro.sampling.block_sampler:BlockSampleStream.take",
         _attr_delta("pages_taken", "pages")),
        ("repro.sampling.block_sampler:BlockSampleStream.take_one_tuple_per_block",
         _attr_delta("pages_taken", "pages")),
        ("repro.sampling.block_sampler:sample_blocks", _sample_blocks_pages()),
    ),
    "core.adaptive": (("repro.core.adaptive:CVBSampler.run", _cvb_outcome()),),
    "core.histogram": (
        ("repro.core.histogram:EquiHeightHistogram.from_sorted_values", None),
        ("repro.core.histogram:EquiHeightHistogram.from_values", None),
    ),
    "core.error_metrics": (
        ("repro.core.error_metrics:fractional_max_error", None),
        ("repro.core.error_metrics:relative_deviation", None),
        ("repro.core.error_metrics:histogram_max_error_fraction", None),
    ),
    "core.kernels": tuple(
        (f"repro.core.kernels:{name}", None)
        for name in (
            "gather_pages", "equi_height_separators_unsorted",
            "separator_counts", "merge_sorted", "ensure_sorted",
            "one_per_block_draws",
        )
    ),
    "distinct": (
        ("repro.distinct.frequency:FrequencyProfile.from_sample", None),
        ("repro.distinct.estimators:GEEEstimator.estimate", None),
    ),
    "experiments.parallel": (
        ("repro.experiments.parallel:TrialPool.map", None),
    ),
    "experiments.runner": (
        ("repro.experiments.runner:mean_error_at_rate", None),
        ("repro.experiments.runner:required_blocks_for_error", None),
    ),
    "workloads": (("repro.workloads.datasets:make_dataset", None),),
}

#: Modules imported before wrapping, so every by-name lookup site exists.
PRELOAD = ("repro.cli", "repro.serve", "repro.experiments.figures")


def span_name(layer: str, target: str) -> str:
    """The span name of one wrapped function: ``layer:Qual.name``."""
    return f"{layer}:{target.split(':', 1)[1]}"


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    return name.split(":", 1)[0]


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


class Recorder:
    """In-memory span store: one list and one call stack per thread.

    A span is the tuple ``(id, parent, root, name, start_ns, end_ns,
    counters)``; ``parent`` is 0 for a root span, and ``root`` is the id of
    the outermost span on the stack (the request, for ``repro serve``).
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list] = []
        self._ids = itertools.count(1)

    def state(self) -> tuple[list, list]:
        """This thread's ``(spans, stack)``."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._lists.append(state[0])
        return state

    def next_id(self) -> int:
        """A process-unique span id."""
        return next(self._ids)

    def spans(self) -> list[tuple]:
        """Every span recorded so far, across threads."""
        with self._lock:
            return [span for spans in self._lists for span in spans]

    def dump(self, path: str) -> None:
        """Write every span to *path*, one JSON array per line."""
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def timed(fn, name: str, recorder: Recorder, counter=None):
    """Wrap *fn* so every call records a span; results and errors pass through."""
    before, after = counter or (None, None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans, stack = recorder.state()
        span_id = recorder.next_id()
        parent = stack[-1] if stack else 0
        root = stack[0] if stack else span_id
        state = before(args, kwargs) if before is not None else None
        stack.append(span_id)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans.append((span_id, parent, root, name, start, clock(), None))
            raise
        finally:
            stack.pop()
        end = clock()
        counters = after(state, args, kwargs, result) if after else None
        spans.append((span_id, parent, root, name, start, end, counters))
        return result

    return wrapper


class _TimedSlot:
    """Admission slot whose span covers only the wait to enter it."""

    def __init__(self, inner, name: str, recorder: Recorder):
        self._inner = inner
        self._name = name
        self._recorder = recorder

    def __enter__(self):
        spans, stack = self._recorder.state()
        span_id = self._recorder.next_id()
        start = clock()
        decision = self._inner.__enter__()
        spans.append((
            span_id, stack[-1] if stack else 0,
            stack[0] if stack else span_id, self._name, start, clock(),
            {"shed": int(decision == "shed")},
        ))
        return decision

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


def timed_slot(fn, name: str, recorder: Recorder):
    """Wrap a context-manager factory so entering it is timed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedSlot(fn(*args, **kwargs), name, recorder)

    return wrapper


def wrap_attribute(owner, attr: str, name: str, recorder: Recorder, counter=None):
    """Replace ``owner.attr`` with a timed wrapper; return ``(old, new)``.

    Classmethods and staticmethods are unwrapped, timed, and re-wrapped so
    the descriptor kind survives.
    """
    raw = vars(owner)[attr]
    if counter == "slot":
        make = functools.partial(timed_slot, name=name, recorder=recorder)
    else:
        make = functools.partial(timed, name=name, recorder=recorder, counter=counter)
    if isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, attr, new)
    return raw, new


def install(recorder: Recorder) -> None:
    """Wrap every function in :data:`LAYERS`, wherever it is looked up."""
    for module in PRELOAD:
        importlib.import_module(module)
    for layer, targets in LAYERS.items():
        for target, counter in targets:
            module_name, qualname = target.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            old, new = wrap_attribute(
                owner, attr, span_name(layer, target), recorder, counter
            )
            if not path:
                _rebind(old, new)


def _rebind(old, new) -> None:
    """Point every ``repro`` module global that holds *old* at *new*."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


@dataclass
class NameStats:
    """Aggregate of every span of one wrapped function.

    ``callers`` counts calls by the name of the wrapped caller (``""`` for
    a root span).
    """

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    counters: dict = field(default_factory=dict)
    callers: dict = field(default_factory=dict)


def load_spans(path: str) -> list[tuple]:
    """Read a span file written by :meth:`Recorder.dump` back into tuples."""
    names: dict[str, str] = {}
    spans = []
    with open(path) as handle:
        for line in handle:
            span = json.loads(line)
            span[3] = names.setdefault(span[3], span[3])
            spans.append(tuple(span))
    return spans


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list[tuple], window: tuple[int, int] | None = None) -> dict[str, NameStats]:
    """Per-name calls, total time, self time and counter sums.

    Self time is a span's duration minus the union of its children's
    intervals.  With *window*, only spans that start inside it count.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    names = {0: ""}
    for span_id, parent, _, name, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
        names[span_id] = name
    stats: dict[str, NameStats] = {}
    for span_id, parent, _, name, start, end, counters in spans:
        if window is not None and not window[0] <= start < window[1]:
            continue
        entry = stats.setdefault(name, NameStats())
        entry.calls += 1
        entry.total_ns += end - start
        entry.self_ns += end - start - _covered(children.get(span_id, []), start, end)
        for key, value in (counters or {}).items():
            entry.counters[key] = entry.counters.get(key, 0) + value
        caller = names[parent]
        entry.callers[caller] = entry.callers.get(caller, 0) + 1
    return stats


def by_layer(stats: dict[str, NameStats]) -> dict[str, NameStats]:
    """Fold per-name stats into per-layer stats (every layer present)."""
    folded = {layer: NameStats() for layer in LAYERS}
    for name, entry in stats.items():
        total = folded[layer_of(name)]
        total.calls += entry.calls
        total.total_ns += entry.total_ns
        total.self_ns += entry.self_ns
        for key, value in entry.counters.items():
            total.counters[key] = total.counters.get(key, 0) + value
    return folded


# ----------------------------------------------------------------------
# Which wrapped functions each workload must (and must not) call
# ----------------------------------------------------------------------

_BUILD = (
    "engine.statistics:StatisticsManager.analyze",
    "engine.density:selfjoin_density_from_sample",
    "storage.heapfile:HeapFile.from_values",
    "storage.heapfile:HeapFile.read_pages",
    "storage.layout:apply_layout",
    "sampling.block_sampler:BlockSampleStream.take",
    "core.adaptive:CVBSampler.run",
    "core.histogram:EquiHeightHistogram.from_sorted_values",
    "core.error_metrics:fractional_max_error",
    "core.kernels:gather_pages",
    "core.kernels:merge_sorted",
    "distinct:FrequencyProfile.from_sample",
    "distinct:GEEEstimator.estimate",
)
_READ = (
    "serve.server:StatsServer.handle",
    "serve.cache:StatsCache.lookup",
    "serve.bucket_index:BucketIndex.estimate_range",
    "serve.bucket_index:BucketIndex.estimate_quantile",
    "engine.maintenance:AutoStatistics.ensure_fresh",
)

#: Workload -> (names that must be called, layers that must stay idle).
#: Some wrapped names are busy in no workload: ``relative_deviation`` and
#: ``histogram_max_error_fraction`` serve CVB's ``metric="count"``, and
#: ``take_one_tuple_per_block`` / ``one_per_block_draws`` its
#: ``validation="one_per_block"``; the server builds with the defaults.
#: ``core.adaptive`` is idle in the figure sweep because figures 5, 6 and 9
#: sample fixed block counts rather than running CVB.
EXPECTED: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "serve_hot": (
        _READ,
        ("core.adaptive", "sampling.block_sampler", "storage.heapfile",
         "storage.layout", "engine.statistics"),
    ),
    "serve_churn": (
        _READ + _BUILD,
        ("experiments.parallel", "experiments.runner", "workloads"),
    ),
    "analyze_cold": (
        _BUILD + (
            "serve.server:StatsServer.handle",
            "serve.cache:StatsCache.install",
            "serve.admission:AdmissionController.slot",
            "engine.maintenance:AutoStatistics.analyze",
            "serve.bucket_index:BucketIndex.estimate_range",
        ),
        ("experiments.parallel", "experiments.runner", "workloads"),
    ),
    "figure_sweep": (
        (
            "experiments.parallel:TrialPool.map",
            "experiments.runner:mean_error_at_rate",
            "experiments.runner:required_blocks_for_error",
            "workloads:make_dataset",
            "storage.heapfile:HeapFile.from_values",
            "storage.heapfile:HeapFile.read_pages",
            "storage.layout:apply_layout",
            "sampling.block_sampler:sample_blocks",
            "core.histogram:EquiHeightHistogram.from_values",
            "core.error_metrics:fractional_max_error",
            "core.kernels:gather_pages",
            "core.kernels:ensure_sorted",
            "core.kernels:equi_height_separators_unsorted",
            "core.kernels:separator_counts",
            "distinct:FrequencyProfile.from_sample",
            "distinct:GEEEstimator.estimate",
        ),
        ("serve.server", "serve.cache", "serve.bucket_index",
         "serve.admission", "engine.maintenance", "core.adaptive"),
    ),
}


def coverage_errors(workload: str, stats: dict[str, NameStats]) -> list[str]:
    """Predicted-busy names with no calls, and predicted-idle layers with some."""
    busy, idle = EXPECTED[workload]
    errors = [
        f"{name}: predicted to work on {workload} but never called"
        for name in busy
        if stats.get(name, NameStats()).calls == 0
    ]
    for name, entry in sorted(stats.items()):
        if layer_of(name) in idle and entry.calls:
            errors.append(
                f"{name}: predicted idle on {workload} but called "
                f"{entry.calls} times"
            )
    return errors
