"""Public-API surface tests: exports resolve, version exists, no drift."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]

SUBPACKAGES = [
    "repro.core",
    "repro.distinct",
    "repro.engine",
    "repro.storage",
    "repro.sampling",
    "repro.workloads",
    "repro.baselines",
    "repro.experiments",
]


class TestExports:
    def test_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) == 3

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__all__, module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_key_classes_reachable_from_top_level(self):
        # The names a downstream user reaches for first.
        for name in (
            "EquiHeightHistogram",
            "CVBSampler",
            "CVBConfig",
            "cvb_build",
            "GEEEstimator",
            "StatisticsManager",
            "Table",
            "HeapFile",
            "make_dataset",
            "RangeQuery",
        ):
            assert hasattr(repro, name), name

    def test_exceptions_hierarchy(self):
        from repro import exceptions

        assert issubclass(exceptions.ParameterError, exceptions.ReproError)
        assert issubclass(exceptions.ParameterError, ValueError)
        assert issubclass(
            exceptions.StatisticsNotFoundError, exceptions.CatalogError
        )
        assert issubclass(exceptions.StatisticsNotFoundError, KeyError)

    def test_bounds_module_namespaced(self):
        # bounds is deliberately exposed as a module, not flattened.
        from repro.core import bounds

        assert callable(bounds.corollary1_sample_size)


class TestRngHelpers:
    def test_ensure_rng_accepts_all_forms(self):
        import numpy as np

        from repro import ensure_rng

        assert isinstance(ensure_rng(None), np.random.Generator)
        assert isinstance(ensure_rng(42), np.random.Generator)
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_rejects_junk(self):
        from repro import ensure_rng

        with pytest.raises(TypeError):
            ensure_rng("seed")
        with pytest.raises(TypeError):
            ensure_rng([1, "2"])

    def test_seed_list_builds_the_default_rng_generator(self):
        import numpy as np

        from repro import ensure_rng

        seed = [7, 2_849_032_011, 305_419_896, 3]
        want = np.random.default_rng(seed).integers(0, 10**9, 8)
        assert (ensure_rng(seed).integers(0, 10**9, 8) == want).all()
        assert (ensure_rng(tuple(seed)).integers(0, 10**9, 8) == want).all()

    def test_seeded_rngs_reproduce(self):
        from repro import ensure_rng

        a = ensure_rng(7).integers(0, 1000, 10)
        b = ensure_rng(7).integers(0, 1000, 10)
        assert (a == b).all()

    def test_spawn_rngs_independent_and_stable(self):
        import numpy as np

        from repro import spawn_rngs

        first = [g.integers(0, 10**9) for g in spawn_rngs(3, 4)]
        second = [g.integers(0, 10**9) for g in spawn_rngs(3, 4)]
        assert first == second
        assert len(set(first)) == 4  # overwhelmingly likely distinct

    def test_spawn_rngs_negative_rejected(self):
        from repro import spawn_rngs

        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestStartUp:
    def test_entry_points_do_not_import_scipy(self):
        """scipy serves three rarely used estimators and would dominate start-up."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = (
            "import sys\n"
            "import repro, repro.cli, repro.serve, repro.experiments.figures\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


@pytest.fixture(scope="module")
def api_generator():
    """``tools/gen_api_reference.py``, imported as a module."""
    path = ROOT / "tools" / "gen_api_reference.py"
    spec = importlib.util.spec_from_file_location("gen_api_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiReference:
    """docs/API.md is generated: it must equal what its generator renders."""

    def test_api_md_matches_the_generator(self, api_generator, golden):
        golden("docs/API.md", api_generator.render())

    def test_every_code_span_is_closed(self, api_generator):
        """A long data value is cut inside its backticks, not after them."""
        unclosed = [
            line[:60] for line in api_generator.render().splitlines()
            if line.count("`") % 2
        ]
        assert not unclosed, unclosed

    def test_every_public_module_has_a_section(self, api_generator):
        package = ROOT / "src" / "repro"
        public = {
            ".".join(path.relative_to(package.parent).with_suffix("").parts)
            for path in package.rglob("*.py")
            if not any(
                part.startswith("_")
                for part in path.relative_to(package).parts
            )
        }
        assert "repro.lint.engine" in public
        missing = sorted(public - set(api_generator.MODULES))
        assert not missing, (
            f"public modules without a docs/API.md section: {missing}; add "
            "them to SECTIONS in tools/gen_api_reference.py and regenerate"
        )
