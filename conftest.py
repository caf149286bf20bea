"""The golden-file check shared by ``tests/`` and the paper suites.

A golden file is committed output that a test must reproduce byte for
byte: the paper suites' tables and figures under ``benchmarks/results/``,
the logical costs in ``benchmarks/baseline.json``, the exporter, lint and
chaos reports under ``tests/*/golden/``, and the generated ``docs/API.md``.  A test hands its output to the ``golden``
fixture, which fails with a unified diff when the output differs from the
file.  Regenerate every golden file after an intentional change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest

The committed paper outputs are the ``small`` scale.  At any other
``REPRO_SCALE`` the paper suites still make their shape assertions, but
their output is neither compared nor written.
"""

from __future__ import annotations

import difflib
import os
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent
RESULTS = ROOT / "benchmarks" / "results"


@pytest.fixture
def golden():
    """``golden(path, text)``: check *text* against the file at *path*.

    A relative *path* is taken from the repository root.
    """

    def check(path, text: str) -> None:
        path = (ROOT / path).resolve()
        if RESULTS in path.parents:
            from repro.experiments.config import get_scale

            if get_scale().name != "small":
                return
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        name = str(path.relative_to(ROOT))
        expected = path.read_text() if path.exists() else ""
        if text != expected:
            diff = difflib.unified_diff(
                expected.splitlines(), text.splitlines(),
                name, "produced by the test", lineterm="",
            )
            pytest.fail(
                f"{name} differs from the test's output; if the change is "
                "intended, regenerate with REPRO_REGEN_GOLDEN=1:\n"
                + "\n".join(diff),
                pytrace=False,
            )

    return check
