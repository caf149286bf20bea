"""Figures 3 & 4: sampling rate / disk blocks sampled vs table size.

Paper: at fixed max error (<= 0.1 at paper scale) and Z=2, the *fraction* of
rows that must be sampled falls roughly like log(n)/n as the table grows
(Figure 3), while the *number of disk blocks* stays nearly constant
(Figure 4) — the practical payoff of Corollary 1's near-independence from n.
"""

from repro.experiments import figures, reporting


def test_fig3_sampling_rate_falls_with_n(report):
    result = figures.figures_3_and_4(seed=1)
    text = "\n\n".join(
        [
            reporting.paper_note(
                "sampling rate falls ~log(n)/n; blocks sampled ~constant",
                caveat=f"scale={result['scale']}, k={result['k']}, "
                f"f={result['f']} (paper: n=5M..20M, k=600, f=0.1)",
            ),
            reporting.format_series(
                "Figure 3: sampling rate vs n (Z=2)", [result["rate"]]
            ),
            reporting.format_series(
                "Figure 4: blocks sampled vs n (Z=2)", [result["blocks"]]
            ),
        ]
    )
    report("fig3_4", text)

    rates = result["rate"].y
    blocks = result["blocks"].y
    ns = result["rate"].x
    # Figure 3's shape: the rate at the largest table is clearly below the
    # rate at the smallest.
    assert rates[-1] < rates[0]
    # Figure 4's shape: blocks grow much slower than n does (log-like, not
    # linear): across a 4x n range, block growth stays under half of it.
    n_growth = ns[-1] / ns[0]
    block_growth = max(blocks) / max(1, min(blocks))
    assert block_growth < 0.75 * n_growth
