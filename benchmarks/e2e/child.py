"""Process under test for the end-to-end benchmark.

Two modes, both driven by ``run.py``::

    python benchmarks/e2e/child.py [--spans FILE] serve <repro serve args>
    python benchmarks/e2e/child.py [--spans FILE] sweep --seed S --figure6-seed F \\
        --trials T --seconds R

``serve`` runs ``repro.cli.main(["serve", ...])`` — the same entry point as
``python -m repro serve`` — after installing the layer wrappers; the
untraced run starts ``python -m repro serve`` directly instead.

``sweep`` is the figure process.  It imports the CLI, prints ``READY``, and
reads one line from stdin: ``exit`` ends a set-up-only start, ``run`` runs
whole passes of ``repro figure 5``, ``6`` and ``9`` at ``--scale medium``
through ``repro.cli.main`` — one warm-up pass, then more until
``--seconds`` have passed — and prints one JSON line with each pass's time
and output hash, figure 9's table, and the peak RSS.

With ``--spans FILE`` the layer wrappers are installed first and every span
is written to FILE when the work ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

FIGURES = ("5", "6", "9")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def sweep(args, main) -> dict:
    """Run figure passes until the time is up; return the result record.

    The first pass warms up; the window covers the passes after it.
    """
    seeds = {"5": args.seed, "6": args.figure6_seed, "9": args.seed}
    passes = []
    start = deadline = None
    while deadline is None or time.perf_counter() < deadline:
        began = time.perf_counter()
        outputs = []
        for figure in FIGURES:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = main([
                    "figure", figure, "--scale", "medium",
                    "--trials", str(args.trials), "--workers", "1",
                    "--seed", str(seeds[figure]),
                ])
            if code != 0:
                raise RuntimeError(f"repro figure {figure} exited {code}")
            outputs.append(buffer.getvalue())
        passes.append({
            "seconds": time.perf_counter() - began,
            "sha256": hashlib.sha256("".join(outputs).encode()).hexdigest(),
            "figure9": outputs[FIGURES.index("9")],
        })
        if deadline is None:
            start = layers.clock()
            deadline = time.perf_counter() + args.seconds
    return {
        "passes": passes,
        "window": [start, layers.clock()],
        "peak_rss_mb": vm_hwm_mb(),
    }


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    mode, argv = argv[0], argv[1:]
    if mode not in ("serve", "sweep"):
        raise SystemExit(f"child.py: unknown mode {mode!r}")

    recorder = None
    if spans:
        recorder = layers.Recorder()
        layers.install(recorder)
    from repro.cli import main as repro_main

    try:
        if mode == "serve":
            return repro_main(["serve", *argv])
        parser = argparse.ArgumentParser(prog="child.py sweep")
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--figure6-seed", type=int, required=True)
        parser.add_argument("--trials", type=int, required=True)
        parser.add_argument("--seconds", type=float, required=True)
        args = parser.parse_args(argv)
        import repro.experiments.figures  # noqa: F401  (import is set-up)

        print("READY", flush=True)
        if sys.stdin.readline().strip() != "run":
            return 0
        print(json.dumps(sweep(args, repro_main)), flush=True)
        return 0
    finally:
        if recorder is not None:
            recorder.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
