"""Per-rule detection tests: each fixture trips exactly its intended rule.

Two layers of coverage:

- ``lint_text`` unit tests: minimal snippets per rule, positive and
  negative, including the path-scoping of DET004/FLT001 and the
  import-resolution that catches aliased calls (``np.random.seed``,
  ``from time import time``).
- fixture-file tests: each module in ``tests/lint/fixtures`` is linted
  with the *full* rule set and must report only its own rule — the
  acceptance criterion that violations are detected by exactly the rule
  they were seeded for.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lint import lint_text, run_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _rules_hit(source: str, rel_path: str = "src/repro/module.py") -> set:
    report = lint_text(source, rel_path=rel_path, root=FIXTURES)
    return {f.rule for f in report.findings}


class TestDET001:
    def test_numpy_global_state_flagged(self):
        src = '"""m."""\nimport numpy as np\nnp.random.seed(0)\n'
        assert _rules_hit(src) == {"DET001"}

    def test_stdlib_global_state_flagged(self):
        src = '"""m."""\nimport random\nrandom.shuffle([1])\n'
        assert _rules_hit(src) == {"DET001"}

    def test_from_import_alias_resolved(self):
        src = (
            '"""m."""\nfrom numpy import random as nprand\n'
            "nprand.random()\n"
        )
        assert _rules_hit(src) == {"DET001"}

    def test_explicit_generators_allowed(self):
        src = (
            '"""m."""\nimport numpy as np\nimport random\n'
            "_G = np.random.default_rng(0)\n"
            "_B = np.random.SeedSequence(1)\n"
            "_R = random.Random(2)\n"
        )
        assert _rules_hit(src) == set()

    def test_generator_method_not_flagged(self):
        src = (
            '"""m."""\nfrom repro._rng import ensure_rng\n'
            "_V = ensure_rng(0).random()\n"
        )
        assert _rules_hit(src) == set()

    def test_argless_default_rng_flagged(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()\n"
        )
        report = lint_text(src, root=FIXTURES, rules=["DET001"])
        assert [f.rule for f in report.findings] == ["DET001"]
        assert "ambient OS entropy" in report.findings[0].message

    def test_explicit_none_and_seedsequence_flagged(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_A = np.random.default_rng(None)\n"
            "_B = np.random.SeedSequence()\n"
            "_C = np.random.SeedSequence(entropy=None)\n"
        )
        report = lint_text(src, root=FIXTURES, rules=["DET001"])
        assert [(f.rule, f.line) for f in report.findings] == [
            ("DET001", 4), ("DET001", 5), ("DET001", 6),
        ]

    def test_seeded_construction_clean(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng(7)\n"
            "_SEQ = np.random.SeedSequence(7)\n"
            "_KW = np.random.default_rng(seed=7)\n"
        )
        assert lint_text(src, root=FIXTURES, rules=["DET001"]).findings == []

    def test_noqa_with_reason_suppresses(self):
        src = (
            '"""m."""\nimport numpy as np\n\n'
            "_RNG = np.random.default_rng()"
            "  # repro: noqa[DET001] -- fixture\n"
        )
        assert lint_text(src, root=FIXTURES, rules=["DET001"]).findings == []


class TestDET002:
    @pytest.mark.parametrize(
        "call",
        [
            "time.perf_counter()",
            "time.time_ns()",
            "os.urandom(16)",
            "uuid.uuid1()",
            "secrets.token_bytes(8)",
        ],
    )
    def test_denylisted_calls_flagged(self, call):
        module = call.split(".", 1)[0]
        src = f'"""m."""\nimport {module}\n_V = {call}\n'
        assert _rules_hit(src) == {"DET002"}

    def test_from_import_resolved(self):
        src = '"""m."""\nfrom time import time\n_T = time()\n'
        assert _rules_hit(src) == {"DET002"}

    def test_datetime_constructor_allowed(self):
        src = (
            '"""m."""\nimport datetime\n'
            "_D = datetime.datetime(1998, 6, 1)\n"
        )
        assert _rules_hit(src) == set()


class TestDET003:
    def test_for_loop_over_set_flagged(self):
        src = '"""m."""\nfor _x in {1, 2}:\n    pass\n'
        assert _rules_hit(src) == {"DET003"}

    def test_list_call_over_set_flagged(self):
        src = '"""m."""\n_L = list({1, 2})\n'
        assert _rules_hit(src) == {"DET003"}

    def test_join_over_setcomp_flagged(self):
        src = '"""m."""\n_S = ",".join({c for c in "ab"})\n'
        assert _rules_hit(src) == {"DET003"}

    def test_sorted_blesses_the_set(self):
        src = '"""m."""\nfor _x in sorted({1, 2}):\n    pass\n'
        assert _rules_hit(src) == set()

    def test_sorted_generator_over_set_allowed(self):
        src = '"""m."""\n_L = sorted(x for x in {1, 2})\n'
        assert _rules_hit(src) == set()

    def test_iterating_a_list_is_fine(self):
        src = '"""m."""\nfor _x in [2, 1]:\n    pass\n'
        assert _rules_hit(src) == set()


class TestDET004:
    SRC = '"""m."""\n_T = sum([0.1, 0.2])\n'

    def test_bare_sum_flagged_in_scoped_path(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/obs/metrics.py")
        assert hit == {"DET004"}

    def test_parallel_module_is_scoped(self):
        hit = _rules_hit(
            self.SRC, rel_path="src/repro/experiments/parallel.py"
        )
        assert hit == {"DET004"}

    def test_out_of_scope_path_not_flagged(self):
        assert _rules_hit(self.SRC, rel_path="src/repro/core/other.py") == set()

    def test_fsum_is_the_fix(self):
        src = '"""m."""\nimport math\n_T = math.fsum([0.1, 0.2])\n'
        assert _rules_hit(src, rel_path="src/repro/obs/metrics.py") == set()


class TestOBS001:
    def test_undeclared_metric_literal_fails(self):
        """The acceptance demo: an undeclared name is a lint error."""
        src = '"""m."""\n\n\ndef _f(m):\n    m.inc("repro_phantom_total")\n'
        assert _rules_hit(src) == {"OBS001"}

    def test_undeclared_span_literal_fails(self):
        src = '"""m."""\n\n\ndef _f(t):\n    t.span("phantom.span")\n'
        assert _rules_hit(src) == {"OBS001"}

    def test_declared_names_pass(self):
        src = (
            '"""m."""\n\n\ndef _f(m, t):\n'
            '    m.inc("repro_good_total")\n'
            '    t.span("good.span")\n'
        )
        assert _rules_hit(src) == set()

    def test_real_catalog_guards_the_real_repo(self):
        """Against the actual repro.obs.catalog, not just the fixture."""
        src = '"""m."""\n\n\ndef _f(m):\n    m.inc("repro_not_a_metric")\n'
        report = lint_text(src, rules=["OBS001"])  # default root = repo
        assert [f.rule for f in report.findings] == ["OBS001"]

    def test_non_literal_names_are_skipped(self):
        src = '"""m."""\n\n\ndef _f(m, name):\n    m.inc(name)\n'
        assert _rules_hit(src) == set()


class TestEXC001:
    def test_dropped_argument_flagged(self):
        src = (
            '"""m."""\n\n\nclass _E(Exception):\n'
            '    """doc."""\n\n'
            "    def __init__(self, msg, extra):\n"
            "        super().__init__(msg)\n"
            "        self.extra = extra\n"
        )
        assert _rules_hit(src) == {"EXC001"}

    def test_forwarding_all_args_passes(self):
        src = (
            '"""m."""\n\n\nclass _E(Exception):\n'
            '    """doc."""\n\n'
            "    def __init__(self, msg, extra=None):\n"
            "        super().__init__(msg, extra)\n"
            "        self.extra = extra\n"
        )
        assert _rules_hit(src) == set()

    def test_reduce_opts_out(self):
        src = (
            '"""m."""\n\n\nclass _E(Exception):\n'
            '    """doc."""\n\n'
            "    def __init__(self, msg, extra):\n"
            "        super().__init__(msg)\n"
            "        self.extra = extra\n\n"
            "    def __reduce__(self):\n"
            '        """doc."""\n'
            "        return (type(self), (self.args[0], self.extra))\n"
        )
        assert _rules_hit(src) == set()

    def test_no_custom_init_passes(self):
        src = '"""m."""\n\n\nclass _E(Exception):\n    """doc."""\n'
        assert _rules_hit(src) == set()

    def test_non_exception_class_ignored(self):
        src = (
            '"""m."""\n\n\nclass _Builder:\n'
            '    """doc."""\n\n'
            "    def __init__(self, a, b):\n"
            "        self.a = a\n"
        )
        assert _rules_hit(src) == set()


class TestEXC002:
    SRC = '"""m."""\nwith open("x.json", "w") as _h:\n    _h.write("{}")\n'

    def test_write_mode_open_flagged_in_persisting_module(self):
        assert _rules_hit(self.SRC, rel_path="src/repro/cli.py") == {"EXC002"}

    def test_durability_package_is_scoped(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/durability/x.py")
        assert hit == {"EXC002"}

    def test_out_of_scope_module_not_flagged(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/core/other.py")
        assert hit == set()

    def test_mode_keyword_resolved(self):
        src = '"""m."""\n_H = open("x.json", mode="w")\n'
        assert _rules_hit(src, rel_path="src/repro/cli.py") == {"EXC002"}

    def test_path_write_text_flagged(self):
        src = (
            '"""m."""\nfrom pathlib import Path\n'
            'Path("x.json").write_text("{}")\n'
        )
        assert _rules_hit(src, rel_path="src/repro/cli.py") == {"EXC002"}

    def test_journal_append_mode_exempt(self):
        src = '"""m."""\n_H = open("run.journal", "ab")\n'
        assert _rules_hit(src, rel_path="src/repro/durability/j.py") == set()

    def test_read_mode_untouched(self):
        src = '"""m."""\n_H = open("x.json")\n_G = open("y.json", "rb")\n'
        assert _rules_hit(src, rel_path="src/repro/cli.py") == set()


class TestEXC003:
    def test_silent_broad_except_flagged(self):
        src = (
            '"""m."""\n\n\ndef _f(task):\n    try:\n        task()\n'
            "    except Exception:\n        pass\n"
        )
        assert _rules_hit(src) == {"EXC003"}

    def test_bare_except_flagged(self):
        src = (
            '"""m."""\n\n\ndef _f(task):\n    try:\n        task()\n'
            "    except:\n        ...\n"
        )
        assert _rules_hit(src) == {"EXC003"}

    def test_broad_member_of_tuple_flagged(self):
        src = (
            '"""m."""\n\n\ndef _f(task):\n    try:\n        task()\n'
            "    except (ValueError, BaseException):\n        pass\n"
        )
        assert _rules_hit(src) == {"EXC003"}

    def test_narrow_silent_except_allowed(self):
        src = (
            '"""m."""\n\n\ndef _f(task):\n    try:\n        task()\n'
            "    except OSError:\n        pass\n"
        )
        assert _rules_hit(src) == set()

    def test_broad_except_with_observable_body_allowed(self):
        src = (
            '"""m."""\n\n\ndef _f(task):\n    try:\n        return task()\n'
            "    except Exception:\n        return None\n"
        )
        assert _rules_hit(src) == set()


class TestFLT001:
    SRC = '"""m."""\n\n\ndef _f(hf):\n    return hf.read_page(0)\n'

    def test_raw_read_flagged_in_sampling(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/sampling/x.py")
        assert hit == {"FLT001"}

    def test_adaptive_module_is_scoped(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/core/adaptive.py")
        assert hit == {"FLT001"}

    def test_storage_layer_itself_exempt(self):
        hit = _rules_hit(self.SRC, rel_path="src/repro/storage/faults.py")
        assert hit == set()

    def test_resilient_wrapper_passes(self):
        src = (
            '"""m."""\nfrom repro.storage.faults import read_page_resilient\n'
            "\n\ndef _f(hf):\n    return read_page_resilient(hf, 0)\n"
        )
        assert _rules_hit(src, rel_path="src/repro/sampling/x.py") == set()


class TestFixturesHitExactlyTheirRule:
    """Full-registry runs over each seeded fixture module."""

    EXPECTED = {
        "src/repro/det001.py": {"DET001"},
        "src/repro/det002.py": {"DET002"},
        "src/repro/det003.py": {"DET003"},
        "src/repro/obs/det004.py": {"DET004"},
        "src/repro/obs001.py": {"OBS001"},
        "src/repro/exc001.py": {"EXC001"},
        "src/repro/durability/exc002.py": {"EXC002"},
        "src/repro/exc003.py": {"EXC003"},
        "src/repro/sampling/flt001.py": {"FLT001"},
        "src/repro/doc001.py": {"DOC001"},
        "src/repro/noqa.py": {"NOQA001"},
    }

    @pytest.mark.parametrize("rel_path", sorted(EXPECTED))
    def test_fixture_module(self, rel_path):
        report = run_lint(root=FIXTURES, paths=[FIXTURES / rel_path])
        assert {f.rule for f in report.findings} == self.EXPECTED[rel_path]

    def test_markdown_fixtures_hit_only_doc002(self):
        report = run_lint(
            root=FIXTURES,
            paths=[FIXTURES / "README.md", FIXTURES / "docs" / "NOTES.md"],
        )
        assert {f.rule for f in report.findings} == {"DOC002"}
        assert len(report.findings) == 2
