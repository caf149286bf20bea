"""Calibrating Corollary 1's constant: theory vs measured requirement.

Corollary 1 prescribes ``r = 4*k*ln(2n/gamma) / f^2``.  The constant 4 and
the union bound over all n separator positions make it provably safe but
conservative; practitioners want to know by how much.  This bench measures
the *empirical* sample size needed for fractional error f (via the direct
requirement search) and reports the implied constant

    ``c_hat = r_measured * f^2 / (k * ln(2n/gamma))``

across k and f.  Expectation: c_hat is roughly stable (the bound's *shape*
is right — that is the reproducible claim) and sits well below 4 (the
*constant* is conservative, which is also why the measured Theorem 4
violation rate in `test_bench_theorem4` is zero rather than gamma).
"""

import math

import numpy as np

from repro.experiments import reporting
from repro.experiments.runner import build_heapfile, required_blocks_for_error
from repro.workloads.datasets import make_dataset

N, B, GAMMA = 200_000, 50, 0.01


def evaluate():
    dataset = make_dataset("zipf0", N, rng=0)
    log_term = math.log(2 * N / GAMMA)
    rows = []
    for k in (20, 50):
        for f in (0.2, 0.3):
            hf = build_heapfile(dataset.values, "random", B, rng=1)
            blocks = required_blocks_for_error(
                hf, dataset.values, k, f, trials=9, rng=2
            )
            r_measured = blocks * B
            r_theory = 4 * k * log_term / (f * f)
            c_hat = r_measured * f * f / (k * log_term)
            rows.append(
                (
                    k,
                    f,
                    r_measured,
                    int(r_theory),
                    round(c_hat, 3),
                    round(r_theory / max(1, r_measured), 1),
                )
            )
    return rows


def test_corollary1_constant_calibration(report):
    rows = evaluate()
    report(
        "calibration_corollary1",
        "\n\n".join(
            [
                reporting.paper_note(
                    "the bound's shape (r ~ k/f^2) holds; its constant is "
                    "conservative by an order of magnitude — the price of a "
                    "distribution-free, all-buckets-simultaneous guarantee",
                    caveat=f"n={N:,}, gamma={GAMMA}, zipf0, random layout; "
                    "measured via direct requirement search",
                ),
                reporting.format_table(
                    ["k", "f", "r measured", "r theory", "c_hat",
                     "safety factor"],
                    rows,
                ),
            ]
        ),
    )

    c_hats = [row[4] for row in rows]
    # The theory never under-prescribes...
    for _k, _f, r_measured, r_theory, _c, _s in rows:
        assert r_theory >= r_measured
    # ...its empirical constant is materially below 4 at every setting...
    assert max(c_hats) < 4.0
    # ...and the k/f^2 shape holds: c_hat varies far less than the 6x
    # spread of k/f^2 across the grid.
    assert max(c_hats) / max(min(c_hats), 1e-6) < 25
