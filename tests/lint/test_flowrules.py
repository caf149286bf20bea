"""SEED1xx / CON1xx flow rules: one positive + one negative per rule.

Single-module fixtures go through :func:`lint_text` (which builds a
one-file project model); the seed-boundary rules need real module
graphs, so those fixtures are written to a throwaway ``src/repro`` tree
on disk and linted with :func:`run_lint`.
"""

from __future__ import annotations

from repro.lint import lint_text, run_lint


def _rules(report):
    return [f.rule for f in report.findings]


def _disk_project(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


POOL = '''"""Trial pool."""


class TrialPool:
    """Pool."""

    def map(self, fn, seeds):
        """Run fn over seeds."""
        return [fn(s) for s in seeds]
'''

RNG = '''"""Seed helpers."""


def spawn_seeds(rng, count):
    """Child seeds."""
    return list(range(count))


def spawn_rngs(rng, count):
    """Child generators."""
    return [object() for _ in range(count)]


def ensure_rng(seed=None):
    """Normalise."""
    return seed
'''

BASE = {
    "src/repro/__init__.py": '"""pkg."""\n',
    "src/repro/pool.py": POOL,
    "src/repro/rng.py": RNG,
}

APP_HEAD = '''"""app."""

from .pool import TrialPool
from .rng import ensure_rng, spawn_rngs, spawn_seeds


def work(seed):
    """W."""
    return seed


'''


def _lint_app(tmp_path, app_body, rules):
    files = dict(BASE)
    files["src/repro/app.py"] = APP_HEAD + app_body
    root = _disk_project(tmp_path, files)
    return run_lint(root=root, rules=rules)


class TestSeed101AmbientEntropy:
    def test_argless_default_rng_flagged(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()\n"
        )
        report = lint_text(src, rules=["SEED101"])
        assert _rules(report) == ["SEED101"]
        assert "ambient OS entropy" in report.findings[0].message

    def test_explicit_none_and_seedsequence_flagged(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_A = np.random.default_rng(None)\n"
            "_B = np.random.SeedSequence()\n"
        )
        assert _rules(lint_text(src, rules=["SEED101"])) == (
            ["SEED101", "SEED101"]
        )

    def test_seeded_construction_clean(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng(7)\n"
            "_SEQ = np.random.SeedSequence(7)\n"
        )
        assert lint_text(src, rules=["SEED101"]).findings == []

    def test_noqa_with_reason_suppresses(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()"
            "  # repro: noqa[SEED101] -- fixture\n"
        )
        assert lint_text(src, rules=["SEED101"]).findings == []


class TestSeed102RawDraws:
    def test_raw_draw_seeds_flagged(self, tmp_path):
        body = (
            "def launch(seed):\n"
            '    """L."""\n'
            "    rng = ensure_rng(seed)\n"
            "    seeds = [rng.integers(2**63) for _ in range(4)]\n"
            "    pool = TrialPool()\n"
            "    return pool.map(work, seeds)\n"
        )
        report = _lint_app(tmp_path, body, ["SEED102"])
        assert _rules(report) == ["SEED102"]
        assert "raw generator draws" in report.findings[0].message

    def test_spawn_seeds_clean(self, tmp_path):
        body = (
            "def launch(seed):\n"
            '    """L."""\n'
            "    rng = ensure_rng(seed)\n"
            "    pool = TrialPool()\n"
            "    return pool.map(work, spawn_seeds(rng, 4))\n"
        )
        assert _lint_app(tmp_path, body, ["SEED102"]).findings == []


class TestSeed103GeneratorBoundary:
    def test_generators_crossing_map_flagged(self, tmp_path):
        body = (
            "def launch(seed):\n"
            '    """L."""\n'
            "    rng = ensure_rng(seed)\n"
            "    pool = TrialPool()\n"
            "    return pool.map(work, spawn_rngs(rng, 4))\n"
        )
        report = _lint_app(tmp_path, body, ["SEED103"])
        assert _rules(report) == ["SEED103"]
        assert "rebuild the generator" in report.findings[0].message

    def test_finding_lands_at_the_caller_of_a_dispatch_helper(
        self, tmp_path
    ):
        body = (
            "def dispatch(fn, seeds):\n"
            '    """D."""\n'
            "    pool = TrialPool()\n"
            "    return pool.map(fn, seeds)\n"
            "\n"
            "\n"
            "def launch(seed):\n"
            '    """L."""\n'
            "    rng = ensure_rng(seed)\n"
            "    return dispatch(work, spawn_rngs(rng, 4))\n"
        )
        report = _lint_app(tmp_path, body, ["SEED103"])
        assert _rules(report) == ["SEED103"]
        [finding] = report.findings
        assert "app.dispatch" in finding.message
        launch_call_line = (APP_HEAD + body).splitlines().index(
            "    return dispatch(work, spawn_rngs(rng, 4))"
        ) + 1
        assert finding.line == launch_call_line

    def test_dispatch_helper_with_spawned_seeds_clean(self, tmp_path):
        body = (
            "def dispatch(fn, seeds):\n"
            '    """D."""\n'
            "    pool = TrialPool()\n"
            "    return pool.map(fn, seeds)\n"
            "\n"
            "\n"
            "def launch(seed):\n"
            '    """L."""\n'
            "    rng = ensure_rng(seed)\n"
            "    return dispatch(work, spawn_seeds(rng, 4))\n"
        )
        assert _lint_app(tmp_path, body, ["SEED103"]).findings == []


class TestCon103LockBalance:
    def test_unreleased_acquire_flagged(self):
        src = (
            '"""m."""\nimport threading\n\n'
            "_LOCK = threading.Lock()\n\n\n"
            "def grab():\n"
            '    """G."""\n'
            "    _LOCK.acquire()\n"
            "    return 1\n"
        )
        report = lint_text(src, rules=["CON103"])
        assert _rules(report) == ["CON103"]
        assert "_LOCK.acquire()" in report.findings[0].message

    def test_balanced_acquire_release_clean(self):
        src = (
            '"""m."""\nimport threading\n\n'
            "_LOCK = threading.Lock()\n\n\n"
            "def grab():\n"
            '    """G."""\n'
            "    _LOCK.acquire()\n"
            "    try:\n"
            "        return 1\n"
            "    finally:\n"
            "        _LOCK.release()\n"
        )
        assert lint_text(src, rules=["CON103"]).findings == []

    def test_non_lock_objects_are_ignored(self):
        src = (
            '"""m."""\n\n\n'
            "def grab(pool):\n"
            '    """G."""\n'
            "    pool.acquire()\n"
            "    return 1\n"
        )
        assert lint_text(src, rules=["CON103"]).findings == []


class TestFlowSelection:
    def test_flow_rules_are_off_by_default(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()\n"
        )
        assert lint_text(src).findings == []

    def test_flow_flag_enables_them(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()\n"
        )
        report = lint_text(src, flow=True)
        assert "SEED101" in _rules(report)
        assert "SEED101" in report.rules and "CON103" in report.rules
