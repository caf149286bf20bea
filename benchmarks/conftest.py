"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures, prints the
series, and writes it to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture.  Benchmarks also make *shape* assertions — the
paper's qualitative claims — so a regression in the algorithms fails the
suite rather than silently producing the wrong curve.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    """Trial-engine knobs, honoured by benchmarks that fan out trials.

    ``pytest benchmarks --workers 4`` parallelises the Monte-Carlo trials
    inside the figure experiments; results are bit-identical for any value
    (the trial engine derives every trial's stream from its own seed).
    Defaults come from ``$REPRO_WORKERS`` / ``$REPRO_CHUNK_SIZE``, else 1 /
    auto.
    """
    parser.addoption(
        "--workers",
        type=int,
        default=int(os.environ.get("REPRO_WORKERS", "1")),
        help="worker processes for Monte-Carlo trials (default 1)",
    )
    parser.addoption(
        "--trial-chunk-size",
        type=int,
        default=(
            int(os.environ["REPRO_CHUNK_SIZE"])
            if os.environ.get("REPRO_CHUNK_SIZE")
            else None
        ),
        help="trials per worker task (default: auto)",
    )


@pytest.fixture
def trial_workers(request) -> int:
    workers = request.config.getoption("--workers")
    if workers < 1:
        raise pytest.UsageError(f"--workers must be >= 1, got {workers}")
    return workers


@pytest.fixture
def trial_chunk_size(request):
    chunk = request.config.getoption("--trial-chunk-size")
    if chunk is not None and chunk < 1:
        raise pytest.UsageError(
            f"--trial-chunk-size must be >= 1, got {chunk}"
        )
    return chunk


@pytest.fixture
def report():
    """Write a named report to the results directory and echo it."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # Echoed so `pytest -s` shows it inline too.
        print(f"\n=== {name} ===\n{text}")

    return _report
