"""Theorem 8: the distinct-value estimation lower bound, demonstrated.

Paper: no estimator can guarantee ratio error below sqrt(n*ln(1/gamma)/r)
with probability 1-gamma.  The bench builds the indistinguishable relation
pair (all-distinct vs heavily-duplicated), verifies that samples from the
two are usually identical in distribution (collision-free), and shows every
estimator in the library forced into large error on one side — with GEE's
worst case tracking the sqrt(n/r) optimum.
"""

import math

import numpy as np

from repro.core import bounds
from repro.distinct.bounds import (
    adversarial_pair,
    empirical_collision_free_rate,
    forced_ratio_error,
)
from repro.distinct.estimators import ALL_ESTIMATORS
from repro.experiments import reporting

N, R, GAMMA = 100_000, 40, 0.5


def estimator_table():
    pair = adversarial_pair(N, R, GAMMA)
    rows = []
    for estimator in ALL_ESTIMATORS:
        errors = [
            forced_ratio_error(pair, estimator, rng=seed) for seed in range(12)
        ]
        rows.append((estimator.name, float(np.median(errors))))
    return pair, rows


def test_theorem8_no_estimator_escapes(report):
    pair, rows = estimator_table()
    theory = bounds.theorem8_error_lower_bound(N, R, GAMMA)
    cf_rate = empirical_collision_free_rate(pair, trials=300, rng=0)
    report(
        "theorem8_lower_bound",
        "\n\n".join(
            [
                reporting.paper_note(
                    "every estimator's forced ratio error >= the "
                    "indistinguishability floor; Haas et al's empirical 1.3-2.9 "
                    "errors at r=0.2n sit right at this wall",
                    caveat=f"n={N:,}, r={R}, gamma={GAMMA}; theorem floor "
                    f"sqrt(n*ln(1/gamma)/r) = {theory:.1f}; construction "
                    f"guarantees ratio {pair.guaranteed_ratio:.1f}; "
                    f"collision-free sample rate {cf_rate:.0%}",
                ),
                reporting.format_table(
                    ["estimator", "median forced ratio error"], rows
                ),
            ]
        ),
    )

    # Indistinguishability really occurs at least gamma of the time.
    assert cf_rate >= GAMMA - 0.1
    floor = 0.25 * pair.guaranteed_ratio
    for name, err in rows:
        assert err >= floor, name
    # GEE is near-optimal: its worst case stays within a small factor of
    # sqrt(n/r), unlike naive (n/r on one side) or scale-up.
    by_name = dict(rows)
    assert by_name["gee"] <= 4 * math.sqrt(N / R)
    assert by_name["naive"] > by_name["gee"]


def test_theorem8_haas_setting(report):
    """Paper Section 6.1: at r = 0.2n and gamma = 0.5 the bound is ~1.86,
    in close accordance with Haas et al's measured errors (avg 1.33,
    max 2.86 over 24 high-skew datasets)."""
    n = 10**6
    value = bounds.theorem8_error_lower_bound(n, int(0.2 * n), 0.5)
    report(
        "theorem8_haas",
        reporting.format_table(
            ["quantity", "value"],
            [
                ("theorem floor at r=0.2n, gamma=0.5", round(value, 3)),
                ("Haas et al measured avg", 1.33),
                ("Haas et al measured max", 2.86),
            ],
        ),
    )
    assert 1.8 <= value <= 1.9
