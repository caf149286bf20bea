"""Example 4 / Theorem 6: our bound vs the Gibbons-Matias-Poosala bound.

Paper: the GMP guarantee (their Theorem 6) (1) bounds only the variance
error, (2) applies only at astronomically large n (n >= r^3), (3) offers no
smooth trade-off, (4) cannot reach f below ~0.35 at practical k, and (5)
prescribes far larger samples once a small f is demanded.

The bench tabulates both regimes honestly: at GMP's own best-achievable
fraction (c=4, f ~ 0.43-0.48) its nominal sample is small — but its
validity precondition n >= r^3 already fails at a billion rows, and at any
*useful* fraction (f = 0.2 and below) the c needed explodes and our bound
wins by orders of magnitude while also guaranteeing the stronger max
metric.
"""

from repro.core import bounds
from repro.experiments import reporting

N = 10**9  # a billion-row table: large, yet nowhere near GMP's n_min
TARGET_F = 0.2


def best_case_rows():
    """GMP at its own sweet spot: c = 4, the largest f it can state."""
    rows = []
    for k in (100, 500, 1000):
        gmp = bounds.gmp_theorem6(k, c=4.0, n=N)
        rows.append(
            (k, round(gmp.f, 3), gmp.r, f"{gmp.n_min:.1e}", gmp.feasible)
        )
    return rows


def useful_f_rows():
    """Both bounds asked for the same useful fraction f = 0.2."""
    rows = []
    for k in (100, 500, 1000):
        c = bounds.gmp_required_c(k, TARGET_F)
        gmp = bounds.gmp_theorem6(k, c=c, n=N)
        ours = bounds.corollary1_sample_size(
            N, k, TARGET_F, max(min(gmp.gamma, 0.5), 1e-9)
        )
        rows.append(
            (
                k,
                round(c, 1),
                gmp.r,
                f"{gmp.n_min:.1e}",
                gmp.feasible,
                ours,
                round(gmp.r / ours, 1),
            )
        )
    return rows


def test_theorem6_comparison(report):
    best = best_case_rows()
    useful = useful_f_rows()
    log_k_tbl = [
        (f, bounds.gmp_required_log_k(f, c=4.0)) for f in (0.43, 0.35, 0.2, 0.1)
    ]
    report(
        "theorem6_gmp_comparison",
        "\n\n".join(
            [
                reporting.paper_note(
                    "GMP's validity needs n >= r^3 (fails even at 1e9 rows); "
                    "below f ~ 0.35 it needs impractical k or exploding c; at "
                    "f = 0.2 our bound needs orders of magnitude fewer "
                    "samples — and bounds the stronger max metric",
                    caveat=f"n = {N:.0e}; 'ours' uses GMP's own gamma",
                ),
                "GMP at its best (c = 4):\n"
                + reporting.format_table(
                    ["k", "f", "r", "n_min", "feasible"], best
                ),
                f"Both bounds at f = {TARGET_F}:\n"
                + reporting.format_table(
                    ["k", "GMP c", "GMP r", "GMP n_min", "feasible",
                     "our r", "GMP/ours"],
                    useful,
                ),
                "k that GMP needs at c = 4 (Example 4.4):\n"
                + reporting.format_table(["target f", "ln(k) needed"], log_k_tbl),
            ]
        ),
    )

    # Example 4.2: validity requires tera-scale+ tables even at c=4.
    for _k, _f, _r, _n_min, feasible in best:
        assert not feasible
    # Example 4.5's substance: at a useful f, our bound wins big.
    for _k, c, gmp_r, _n_min, feasible, ours, _ratio in useful:
        assert c > 4
        assert not feasible
        assert ours < gmp_r / 3
    # Example 4.4: f = 0.35 needs k > 1e5; f = 0.1 needs ln k ~ 500.
    by_f = dict(log_k_tbl)
    assert by_f[0.35] > 11.5  # e^11.5 ~ 10^5
    assert abs(by_f[0.1] - 500) < 5
