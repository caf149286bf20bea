"""Figure 8: sampling required vs record size.

Paper: at one million records and max error <= 0.1, the required amount of
sampling grows linearly with the record size.  Larger records mean fewer
tuples per page (blocking factor b falls), and the tuple budget prescribed
by Corollary 1 then costs proportionally more disk blocks: g = r/b.
The row-level sampling fraction stays roughly flat.
"""

from repro.experiments import figures, reporting


def test_fig8_blocks_grow_with_record_size(report):
    result = figures.figure8(seed=0)
    text = "\n\n".join(
        [
            reporting.paper_note(
                "disk blocks sampled grow ~linearly with record size; "
                "row sampling fraction roughly flat",
                caveat=f"scale={result['scale']}, k={result['k']}, "
                f"f={result['f']} (paper: n=1M, f=0.1, 16..128-byte records)",
            ),
            reporting.format_series(
                "Figure 8: blocks sampled vs record size (Z=2)",
                [result["blocks"]],
            ),
            reporting.format_series(
                "Figure 8 (companion): row sampling rate vs record size",
                [result["rate"]],
            ),
        ]
    )
    report("fig8", text)

    blocks = result["blocks"].y
    sizes = result["blocks"].x
    # Monotone overall and super-constant growth: 8x record size needs at
    # least ~3x the blocks even under sampling noise.
    assert blocks[-1] > blocks[0]
    assert blocks[-1] / max(1, blocks[0]) > 0.35 * (sizes[-1] / sizes[0])
