"""Example 1 / Theorems 1 & 3: why the max error metric matters.

Paper (k=1000, f=0.05, t=10): a histogram whose *average* error is bounded
by f*n/k can still mis-estimate a range query by a 13.5x factor over the
perfect histogram, a variance-bounded one by 2.8x — while a max-error-
bounded histogram is within (1+f) = 1.05x.

The bench prints the analytic table and then *realises* the adversary:

- bucket masses with one bucket oversized by f*n/2 (the deficit spread
  thinly, so Δavg stays exactly f*n/k), and
- every bucket's mass concentrated at its left edge, so interpolation is
  maximally wrong inside the oversized bucket.

A range query ending just past that edge is then misestimated by ~f*n/2 —
(f*k/2) ideal bucket sizes, far beyond the perfect histogram's 2n/k
envelope — while the same data under a *max*-bounded histogram stays within
Theorem 3's (1+f)*2n/k.
"""

import numpy as np

from repro.core import bounds
from repro.core.error_metrics import avg_error, max_error
from repro.core.histogram import EquiHeightHistogram
from repro.experiments import reporting

N, K, F, T = 1_000_000, 1000, 0.05, 10
WIDTH = 1_000  # domain width allotted to each bucket


def analytic_table():
    perfect = bounds.theorem1_perfect_relative_error(T)
    avg = bounds.theorem1_avg_relative_error(K, F, T)
    var = bounds.theorem1_var_relative_error(K, F, T)
    mx = bounds.theorem3_relative_error(F, T)
    return [
        ("perfect", perfect, 1.0),
        ("avg-bounded (Thm 1.2)", avg, avg / perfect),
        ("var-bounded (Thm 1.3)", var, var / perfect),
        ("max-bounded (Thm 3)", mx, mx / perfect),
    ]


def _edge_concentrated_data(masses):
    """masses[j] copies of the value just above bucket j's left boundary."""
    points = np.arange(K, dtype=np.int64) * WIDTH + 1
    return np.repeat(points, masses), points


def adversarial_demo():
    base = N // K
    hot = K // 2
    extra = int(F * N / 2)

    # Avg-bounded adversary: one bucket + extra, deficit spread thinly.
    masses = np.full(K, base, dtype=np.int64)
    masses[hot] += extra
    drain = np.arange(K) != hot
    per_bucket_drain = extra // (K - 1)
    masses[drain] -= per_bucket_drain
    masses[0] -= extra - per_bucket_drain * (K - 1)
    data, points = _edge_concentrated_data(masses)

    separators = (np.arange(1, K, dtype=np.float64)) * WIDTH
    skewed = EquiHeightHistogram.from_separators(separators, data)

    probe_hi = float(points[hot]) + 0.5  # just past the hot bucket's mass
    truth = float(masses[: hot + 1].sum())
    est = skewed.estimate_range(0, probe_hi)
    avg_adversary_error = abs(est - truth)

    # Max-bounded control: perfectly balanced masses, same edge placement.
    balanced, _ = _edge_concentrated_data(np.full(K, base, dtype=np.int64))
    control = EquiHeightHistogram.from_separators(separators, balanced)
    truth_control = float(base * (hot + 1))
    control_error = abs(control.estimate_range(0, probe_hi) - truth_control)

    return {
        "avg_error_fraction": avg_error(skewed.counts) * K / N,
        "max_error_fraction": max_error(skewed.counts) * K / N,
        "avg_adversary_probe_error": avg_adversary_error,
        "max_bounded_probe_error": control_error,
        "perfect_envelope_2n_over_k": bounds.theorem1_perfect_absolute_error(N, K),
        "theorem3_envelope": bounds.theorem3_absolute_error(N, K, F),
    }


def test_example1_metric_comparison(golden):
    demo = adversarial_demo()
    rows = analytic_table()
    text = "\n\n".join(
        [
            reporting.paper_note(
                "avg-bounded 13.5x worse, var-bounded 2.8x worse, "
                "max-bounded 1.05x (Example 1: k=1000, f=0.05, t=10)"
            ),
            reporting.format_table(
                ["histogram guarantee", "worst rel error", "vs perfect"],
                rows,
            ),
            reporting.format_table(
                ["constructed adversary", "value"], sorted(demo.items())
            ),
        ]
    )
    golden("benchmarks/results/example1_theorem1_3.txt", text + "\n")

    factors = {name: factor for name, _, factor in rows}
    assert abs(factors["avg-bounded (Thm 1.2)"] - 13.5) < 0.1
    assert abs(factors["var-bounded (Thm 1.3)"] - 2.8) < 0.1
    assert abs(factors["max-bounded (Thm 3)"] - 1.05) < 0.01

    # The adversary has a small average error by construction...
    assert demo["avg_error_fraction"] <= F * 1.01
    # ...yet mis-answers a range query by many bucket widths,
    assert demo["avg_adversary_probe_error"] > (
        5 * demo["perfect_envelope_2n_over_k"]
    )
    # ...which the max metric exposes immediately,
    assert demo["max_error_fraction"] > 5 * F
    # ...while the max-bounded histogram stays within Theorem 3's envelope.
    assert demo["max_bounded_probe_error"] <= demo["theorem3_envelope"]
