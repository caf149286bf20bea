"""Random-number-generator plumbing.

Every stochastic component of the library accepts either a seed (an ``int``
or a list of ints), an existing :class:`numpy.random.Generator`, or ``None``
(fresh entropy) and normalises it through :func:`ensure_rng`.  Experiments
therefore reproduce exactly given a seed, while library users can share one
generator across components when they need correlated streams.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .exceptions import ParameterError

__all__ = ["RngLike", "ensure_rng", "spawn_seeds", "spawn_rngs"]

RngLike = Union[None, int, Sequence[int], np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for *rng*.

    Parameters
    ----------
    rng:
        ``None`` for fresh OS entropy, an ``int`` seed, a list or tuple of
        ``int`` seeds (hashed together, as ``np.random.default_rng`` does),
        or an existing generator (returned unchanged).  A seed list lets a
        caller name a stream without paying for the generator until it
        draws from it.
    """
    if rng is None:
        # The documented None -> fresh-entropy opt-in; experiment paths
        # always thread an explicit seed through this function instead.
        return np.random.default_rng()  # repro: noqa[DET001] -- sanctioned entropy source
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, (list, tuple)) and all(
        isinstance(part, (int, np.integer)) for part in rng
    ):
        return np.random.default_rng([int(part) for part in rng])
    raise TypeError(
        "rng must be None, an int seed, a list of int seeds, or a numpy "
        f"Generator, got {type(rng)!r}"
    )


def spawn_seeds(rng: RngLike, count: int) -> list[int]:
    """Derive *count* independent child **seeds** from *rng*.

    This is the picklable half of :func:`spawn_rngs`: the integer seeds can
    cross a process boundary, and ``np.random.default_rng(seed)`` on the far
    side reproduces exactly the generator :func:`spawn_rngs` would have built
    in-process.  The parallel trial engine relies on this to make worker
    streams bit-identical to the serial path.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    parent = ensure_rng(rng)
    return [int(s) for s in parent.integers(0, 2**63 - 1, size=count)]


def spawn_rngs(rng: RngLike, count: int) -> list[np.random.Generator]:
    """Derive *count* independent child generators from *rng*.

    Children are derived through :class:`numpy.random.SeedSequence` spawning,
    so they are statistically independent and stable across runs for a fixed
    parent seed.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, count)]
