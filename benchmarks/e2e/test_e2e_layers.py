"""Span arithmetic, timing wrappers and the layer-coverage check.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import contextlib
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402


def span(id, parent, name, start, end, counters=None):
    return (id, parent, 1, name, start, end, counters)


class TestSelfTime:
    def test_self_time_subtracts_child_coverage(self):
        spans = [
            span(1, 0, "a:root", 0, 100),
            span(2, 1, "b:child", 10, 40),
            span(3, 1, "b:child", 50, 60),
            span(4, 2, "c:leaf", 20, 30),
        ]
        stats = layers.summarize(spans)
        assert stats["a:root"].self_ns == 100 - 30 - 10
        assert stats["b:child"].calls == 2
        assert stats["b:child"].total_ns == 40
        assert stats["b:child"].self_ns == 40 - 10
        assert stats["c:leaf"].self_ns == 10

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, 0, "a:root", 0, 100),
            span(2, 1, "b:x", 10, 50),
            span(3, 1, "b:y", 30, 70),
            span(4, 1, "b:z", 90, 120),
        ]
        assert layers.summarize(spans)["a:root"].self_ns == 100 - 60 - 10

    def test_window_keeps_spans_starting_inside(self):
        spans = [
            span(1, 0, "a:root", 0, 10),
            span(2, 0, "a:root", 20, 35),
            span(3, 2, "b:child", 25, 30, {"pages": 4}),
        ]
        stats = layers.summarize(spans, window=(15, 40))
        assert stats["a:root"].calls == 1
        assert stats["a:root"].self_ns == 10
        assert stats["b:child"].counters == {"pages": 4}

    def test_callers_and_layers(self):
        spans = [
            span(1, 0, "serve.server:StatsServer.handle", 0, 10),
            span(2, 1, "serve.cache:StatsCache.lookup", 1, 9),
            span(3, 0, "serve.cache:StatsCache.lookup", 20, 25),
        ]
        stats = layers.summarize(spans)
        assert stats["serve.cache:StatsCache.lookup"].callers == {
            "serve.server:StatsServer.handle": 1, "": 1,
        }
        folded = layers.by_layer(stats)
        assert set(folded) == set(layers.LAYERS)
        assert folded["serve.cache"].calls == 2
        assert folded["serve.cache"].self_ns == 13
        assert folded["core.kernels"].calls == 0


def make_subject():
    """A fresh class, so each test wraps its own attributes."""

    class Subject:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return (cls, x)

        @staticmethod
        def pure(x):
            return x * 2

        def boom(self):
            raise KeyError("boom")

        @contextlib.contextmanager
        def slot(self, decision):
            yield decision

    return Subject


@pytest.fixture
def subject():
    recorder = layers.Recorder()
    cls = make_subject()
    for attr in ("method", "build", "pure", "boom"):
        layers.wrap_attribute(cls, attr, f"t:{attr}", recorder)
    layers.wrap_attribute(cls, "slot", "t:slot", recorder, "slot")
    return cls, recorder


class TestWrappers:
    def test_return_values_and_descriptor_kinds(self, subject):
        cls, recorder = subject
        assert cls().method(1) == 2
        assert cls.build(3) == (cls, 3)
        assert cls().build(3) == (cls, 3)
        assert cls.pure(4) == 8
        assert isinstance(vars(cls)["build"], classmethod)
        assert isinstance(vars(cls)["pure"], staticmethod)
        assert cls.method.__name__ == "method"
        names = [s[3] for s in recorder.spans()]
        assert names == ["t:method", "t:build", "t:build", "t:pure"]

    def test_exceptions_pass_through_and_are_recorded(self, subject):
        cls, recorder = subject
        with pytest.raises(KeyError, match="boom"):
            cls().boom()
        (recorded,) = recorder.spans()
        assert recorded[3] == "t:boom"
        assert recorded[5] >= recorded[4]
        assert recorder.state()[1] == []

    def test_nested_calls_record_parent_and_root(self):
        recorder = layers.Recorder()
        inner = layers.timed(lambda: 1, "t:inner", recorder)
        outer = layers.timed(lambda: inner() + inner(), "t:outer", recorder)
        assert outer() == 2
        spans = {s[0]: s for s in recorder.spans()}
        outer_id = next(i for i, s in spans.items() if s[3] == "t:outer")
        children = [s for s in spans.values() if s[3] == "t:inner"]
        assert [s[1] for s in children] == [outer_id, outer_id]
        assert {s[2] for s in spans.values()} == {outer_id}

    def test_slot_times_only_the_entry(self, subject):
        cls, recorder = subject
        with cls().slot("shed") as decision:
            assert decision == "shed"
        (recorded,) = recorder.spans()
        assert recorded[3] == "t:slot"
        assert recorded[6] == {"shed": 1}

    def test_counters_attach_to_spans(self):
        recorder = layers.Recorder()
        read = layers.timed(lambda self, ids: list(ids), "t:read", recorder,
                            layers._arg_len(1, "pages"))
        assert read(None, [3, 4, 5]) == [3, 4, 5]
        assert recorder.spans()[0][6] == {"pages": 3}

    def test_dump_round_trips(self, subject, tmp_path):
        cls, recorder = subject
        cls().method(1)
        path = tmp_path / "spans.jsonl"
        recorder.dump(str(path))
        assert layers.load_spans(str(path)) == recorder.spans()


def test_install_rebinds_names_imported_elsewhere():
    """Run in a child so the wrapped ``repro`` modules stay out of this process."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import layers\n"
        "layers.install(layers.Recorder())\n"
        "import repro.experiments.runner as runner, repro.core.adaptive as adaptive\n"
        "import repro.sampling.block_sampler as bs, repro.core.error_metrics as em\n"
        "assert runner.sample_blocks is bs.sample_blocks\n"
        "assert runner.sample_blocks.__wrapped__ is not None\n"
        "assert adaptive.fractional_max_error is em.fractional_max_error\n"
        "assert hasattr(adaptive.fractional_max_error, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True, timeout=120)


class TestCoverage:
    def test_every_predicted_name_is_wrapped(self):
        wrapped = {
            layers.span_name(layer, target)
            for layer, targets in layers.LAYERS.items()
            for target, _ in targets
        }
        for workload, (busy, idle) in layers.EXPECTED.items():
            assert set(busy) <= wrapped, workload
            assert set(idle) <= set(layers.LAYERS), workload

    def test_missing_and_unexpected_work_are_errors(self):
        busy, idle = layers.EXPECTED["serve_hot"]
        stats = {name: layers.NameStats(calls=1) for name in busy}
        assert layers.coverage_errors("serve_hot", stats) == []
        del stats[busy[0]]
        stats["core.adaptive:CVBSampler.run"] = layers.NameStats(calls=2)
        errors = layers.coverage_errors("serve_hot", stats)
        assert len(errors) == 2
        assert "never called" in errors[0]
        assert "predicted idle" in errors[1]
