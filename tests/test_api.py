"""Public-API surface tests: exports resolve, version exists, no drift."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

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
        assert issubclass(exceptions.PageFullError, exceptions.StorageError)

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
