"""Parallel trial engine: serial/parallel bit-identity and wall-clock speedup.

Runs the Figure 5 trial sweep (``mean_error_at_rate`` over the scale's rate
grid) twice — once serially, once over a process pool — and

- asserts the accuracy numbers are **bit-identical** (the determinism
  guarantee: every trial's stream derives from its own pre-spawned seed, so
  worker count and scheduling cannot change a single float), and
- records wall-clock times, realised speedup, and aggregate page reads in
  ``benchmarks/results/parallel_speedup.txt``.

The >= 2x speedup assertion only engages on machines with at least 4 CPU
cores: on a smaller runner the fan-out cannot physically pay for its
process overhead, and the bit-identity assertion is the part that must
never flake.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments import reporting
from repro.experiments.config import get_scale
from repro.experiments.parallel import TrialPool
from repro.experiments.runner import build_heapfile, mean_error_at_rate

# More trials per point than the figure default: the speedup measurement
# needs enough per-point work for the fan-out to amortise.
TRIALS = 8
# Always fan out over 4 processes, even on smaller machines: the
# bit-identity demonstration must cover the real multi-process path (the
# speedup assertion below is what stays core-count-gated).
PARALLEL_WORKERS = 4


def _sweep(heapfile, values, k, rates, pool):
    errors = []
    wall = 0.0
    reads = 0
    for i, rate in enumerate(rates):
        start = time.perf_counter()
        errors.append(
            mean_error_at_rate(
                heapfile, values, rate, k, trials=TRIALS, rng=100 + i,
                pool=pool,
            )
        )
        wall += time.perf_counter() - start
        reads += pool.last_stats.page_reads
    return errors, wall, reads


def test_parallel_sweep_is_bit_identical_and_fast(report):
    scale = get_scale()
    dataset_values = np.random.default_rng(0).permutation(
        np.arange(1, scale.n + 1)
    )
    heapfile = build_heapfile(
        dataset_values, "random", scale.blocking_factor, rng=1
    )
    values = dataset_values

    with TrialPool(max_workers=1) as serial_pool:
        serial_errors, serial_wall, serial_reads = _sweep(
            heapfile, values, scale.k, scale.rates, serial_pool
        )
    with TrialPool(max_workers=PARALLEL_WORKERS) as par_pool:
        par_errors, par_wall, par_reads = _sweep(
            heapfile, values, scale.k, scale.rates, par_pool
        )
        mode = par_pool.last_stats.mode

    # The determinism guarantee: element-wise identical floats.
    assert par_errors == serial_errors
    assert par_reads == serial_reads

    speedup = serial_wall / par_wall if par_wall else 1.0
    text = "\n".join(
        [
            reporting.paper_note(
                "parallel trials reproduce the serial sweep bit-for-bit; "
                "wall-clock speedup tracks the worker count on multi-core "
                "machines",
                caveat=f"scale={scale.name}, trials/point={TRIALS}, "
                f"cores available={os.cpu_count()}",
            ),
            "",
            reporting.format_table(
                ["config", "wall_s", "page_reads", "errors_identical"],
                [
                    ["workers=1 (serial)", serial_wall, serial_reads, "-"],
                    [
                        f"workers={PARALLEL_WORKERS} [{mode}]",
                        par_wall,
                        par_reads,
                        "yes",
                    ],
                ],
            ),
            "",
            f"speedup: {speedup:.2f}x "
            f"({PARALLEL_WORKERS} workers, {os.cpu_count()} cores)",
        ]
    )
    report("parallel_speedup", text)

    if (os.cpu_count() or 1) >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with {PARALLEL_WORKERS} workers on a "
            f"{os.cpu_count()}-core machine, measured {speedup:.2f}x"
        )
