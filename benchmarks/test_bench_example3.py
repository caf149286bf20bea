"""Example 3: the multi-functional Corollary 1 trade-off, numerically.

Paper (gamma = 0.01): sample-size, histogram-size and histogram-error
determinations — r ~ 1 Meg at (k=500, f=0.2); r ~ 800 K at (k=100, f=0.1);
k <= 800 at (n=20 Meg, r=1 Meg, f=0.25); f <= 14% at (n=25 Meg, r=800 K,
k=200).  The paper rounds ln(2n/gamma) to ~20 (exact ~26), so exact values
run 20-30% above its quotes; both columns are printed.
"""

from repro.core import bounds
from repro.experiments import reporting

GAMMA = 0.01
GIG = 2**30
MEG = 2**20


def compute():
    return {
        "r_k500_f02": bounds.corollary1_sample_size(GIG, 500, 0.2, GAMMA),
        "r_k100_f01": bounds.corollary1_sample_size(GIG, 100, 0.1, GAMMA),
        "k_max": bounds.corollary1_max_buckets(20 * MEG, MEG, 0.25, GAMMA),
        "f_bound": bounds.corollary1_error_fraction(25 * MEG, 200, 800_000, GAMMA),
    }


def test_example3_tradeoff_numbers(golden):
    values = compute()
    rows = [
        ("sample size (k=500, f=0.2)", "~1 Meg", f"{values['r_k500_f02']:,}"),
        ("sample size (k=100, f=0.1)", "~800 K", f"{values['r_k100_f01']:,}"),
        ("max buckets (n=20M, r=1M, f=0.25)", "<= 800", values["k_max"]),
        ("error bound (n=25M, r=800K, k=200)", "<= 14%", f"{values['f_bound']:.1%}"),
    ]
    golden(
        "benchmarks/results/example3_tradeoffs.txt",
        "\n\n".join(
            [
                reporting.paper_note(
                    "Example 3's three determinations, gamma=0.01",
                    caveat="paper rounds ln(2n/gamma) to ~20; exact is ~26, "
                    "so exact values sit 20-30% above the quotes",
                ),
                reporting.format_table(["determination", "paper", "exact"], rows),
            ]
        ) + "\n",
    )

    assert 0.9 * MEG <= values["r_k500_f02"] <= 1.4 * MEG
    assert 700_000 <= values["r_k100_f01"] <= 1_100_000
    assert 650 <= values["k_max"] <= 800
    assert 0.12 <= values["f_bound"] <= 0.15


def test_example3_independence_from_n(golden):
    """The headline property: r is flat in n (log factor only)."""
    def sweep():
        return [
            (n, bounds.corollary1_sample_size(n, 500, 0.2, GAMMA))
            for n in (10**6, 10**7, 10**8, 10**9, 10**12)
        ]

    rows = sweep()
    golden(
        "benchmarks/results/example3_n_independence.txt",
        reporting.format_table(["n", "required r (k=500, f=0.2)"], rows)
        + "\n",
    )
    assert rows[-1][1] < 2 * rows[0][1]  # 10^6x more data, < 2x more samples
