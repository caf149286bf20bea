"""Page-sampling strategy ablation: uniform vs Bernoulli vs systematic.

Not a paper figure, but a design-space check the storage simulator makes
cheap: at equal I/O budget, uniform block sampling and Bernoulli page
sampling build equally good histograms, while systematic (every j-th page)
sampling is fine on random layouts but collapses on periodic/sorted ones —
the reason the paper's algorithm (and SQL Server) sample pages uniformly.
"""

import numpy as np

from repro.core.error_metrics import fractional_max_error
from repro.core.histogram import EquiHeightHistogram
from repro.experiments import reporting
from repro.sampling.block_sampler import sample_blocks
from repro.sampling.page_samplers import (
    bernoulli_page_sample,
    systematic_page_sample,
)
from repro.storage import HeapFile

N, B, K = 200_000, 50, 50
BUDGET_FRACTION = 0.1


def _quality(sample, data):
    hist = EquiHeightHistogram.from_values(sample, K)
    return fractional_max_error(hist.separators, np.sort(sample), data)


def evaluate():
    rng = np.random.default_rng(0)
    base = np.arange(N)
    rows = []
    # Banded round-robin stripe: the domain splits into 10 bands and page i
    # holds the next chunk of band (i mod 10) — so a stride-10 systematic
    # sample only ever sees one band of the domain.
    bands = np.array_split(base, 10)
    positions = [0] * 10
    striped_pages = []
    for i in range(N // B):
        j = i % 10
        striped_pages.append(bands[j][positions[j] : positions[j] + B])
        positions[j] += B
    layouts = {
        "random": rng.permutation(base),
        "sorted": base,
        "banded": np.concatenate(striped_pages),
    }
    stride = int(1 / BUDGET_FRACTION)
    for layout_name, laid_out in layouts.items():
        hf = HeapFile(laid_out, blocking_factor=B)
        data = np.sort(laid_out)
        num_blocks = int(BUDGET_FRACTION * hf.num_pages)
        uniform = np.mean(
            [
                _quality(sample_blocks(hf, num_blocks, rng=s), data)
                for s in range(5)
            ]
        )
        bernoulli = np.mean(
            [
                _quality(bernoulli_page_sample(hf, BUDGET_FRACTION, rng=s), data)
                for s in range(5)
            ]
        )
        systematic = np.mean(
            [
                _quality(systematic_page_sample(hf, stride, rng=s), data)
                for s in range(5)
            ]
        )
        rows.append(
            (
                layout_name,
                round(float(uniform), 3),
                round(float(bernoulli), 3),
                round(float(systematic), 3),
            )
        )
    return rows


def test_page_sampler_ablation(golden):
    rows = evaluate()
    golden(
        "benchmarks/results/ablation_page_samplers.txt",
        "\n\n".join(
            [
                reporting.paper_note(
                    "uniform ~ Bernoulli everywhere; systematic matches on "
                    "random layouts but cannot be trusted on structured ones",
                    caveat=f"n={N:,}, b={B}, k={K}, "
                    f"I/O budget {BUDGET_FRACTION:.0%} of pages",
                ),
                reporting.format_table(
                    ["layout", "uniform", "bernoulli", "systematic"], rows
                ),
            ]
        ) + "\n",
    )

    by_layout = {row[0]: row for row in rows}
    # On the random layout all three agree within noise.
    uniform, bernoulli, systematic = by_layout["random"][1:]
    assert systematic < 2.5 * max(uniform, 0.02) + 0.05
    assert bernoulli < 2.5 * max(uniform, 0.02) + 0.05
    # On the banded layout systematic sampling collapses: it only ever
    # observes one tenth of the domain.
    assert by_layout["banded"][3] > 2 * by_layout["banded"][1]
