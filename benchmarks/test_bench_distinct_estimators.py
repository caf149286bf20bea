"""Distinct-value estimator shoot-out across distributions.

Section 6's framing (following Haas et al [10]): classical estimators can be
wildly wrong on some distributions; GEE's worst case is controlled.  The
bench evaluates every estimator on four distributions at a 5% sample and
reports ratio error (Definition 5) and rel-error; the assertion is the
paper's claim — GEE has the best (or tied-best) *worst-case* ratio error
and small rel-error everywhere.
"""

import numpy as np

from repro.distinct.estimators import ALL_ESTIMATORS, estimate_all
from repro.distinct.metrics import ratio_error, rel_error
from repro.experiments import reporting
from repro.workloads.datasets import make_dataset

N = 100_000
RATE = 0.05
DATASETS = ("zipf0", "zipf2", "zipf4", "unif_dup", "all_distinct")


def evaluate():
    results = {est.name: {} for est in ALL_ESTIMATORS}
    truths = {}
    for name in DATASETS:
        dataset = make_dataset(name, N, rng=10)
        truths[name] = dataset.num_distinct
        rng = np.random.default_rng(11)
        per_estimator = {est.name: [] for est in ALL_ESTIMATORS}
        for _ in range(5):
            sample = dataset.values[rng.integers(0, N, size=int(RATE * N))]
            for est_name, value in estimate_all(sample, N).items():
                per_estimator[est_name].append(value)
        for est_name, values in per_estimator.items():
            results[est_name][name] = float(np.mean(values))
    return truths, results


def test_distinct_estimator_shootout(report):
    truths, results = evaluate()

    ratio_rows, rel_rows = [], []
    worst_ratio = {}
    for est_name, per_dataset in results.items():
        ratios = {
            ds: ratio_error(est, truths[ds]) for ds, est in per_dataset.items()
        }
        rels = {
            ds: rel_error(est, truths[ds], N) for ds, est in per_dataset.items()
        }
        worst_ratio[est_name] = max(ratios.values())
        ratio_rows.append(
            [est_name] + [round(ratios[ds], 2) for ds in DATASETS]
        )
        rel_rows.append(
            [est_name] + [round(rels[ds], 4) for ds in DATASETS]
        )

    report(
        "distinct_estimators",
        "\n\n".join(
            [
                reporting.paper_note(
                    "GEE's worst-case ratio error is controlled "
                    "(~sqrt(n/r)); classical estimators blow up on some "
                    "distribution; rel-error is small for GEE everywhere",
                    caveat=f"n={N:,}, sample rate {RATE:.0%}, 5 trials "
                    f"averaged; truths: "
                    + ", ".join(f"{d}={truths[d]:,}" for d in DATASETS),
                ),
                "Ratio error (Definition 5):\n"
                + reporting.format_table(["estimator", *DATASETS], ratio_rows),
                "Rel-error (|d-e|/n):\n"
                + reporting.format_table(["estimator", *DATASETS], rel_rows),
            ]
        ),
    )

    # GEE's worst case beats the unsafe extremes.
    assert worst_ratio["gee"] <= worst_ratio["naive"]
    assert worst_ratio["gee"] <= worst_ratio["scale_up"]
    # Rel-error is small on the paper's evaluated distributions.
    for ds in ("zipf0", "zipf2", "zipf4", "unif_dup"):
        assert rel_error(results["gee"][ds], truths[ds], N) < 0.12, ds
    # all_distinct is the Theorem 8 hard case: nobody can do better than
    # ~sqrt(n/r) ratio error there, and GEE sits right at that optimum.
    import math
    optimal = math.sqrt(N / (RATE * N))
    assert ratio_error(results["gee"]["all_distinct"],
                       truths["all_distinct"]) < 1.5 * optimal
