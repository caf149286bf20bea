"""Named dataset factory for the paper's experiments.

Section 7 of the paper evaluates on Zipf distributions with Z in {0, 2, 4} and
on the *Unif/Dup* distribution (every value occurring a fixed number of
times).  :func:`make_dataset` produces those by name so benchmarks, tests and
examples share one definition of each workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import RngLike
from ..core import kernels
from ..exceptions import ParameterError
from . import distributions, zipf

__all__ = ["Dataset", "make_dataset", "DATASET_NAMES"]

#: Default universe size for Zipf datasets, as a fraction of n.  At n = 10^7
#: and Z = 2 the paper's realised distinct count was 6,101; a universe of
#: n/100 with largest-remainder rounding lands in the same regime (the far
#: tail rounds to zero for skewed Z).
_ZIPF_UNIVERSE_FRACTION = 0.01

DATASET_NAMES = (
    "zipf0",
    "zipf1",
    "zipf2",
    "zipf3",
    "zipf4",
    "unif_dup",
    "all_distinct",
    "self_similar",
    "normal",
    "bimodal",
)


@dataclass(frozen=True)
class Dataset:
    """A generated value set plus its provenance.

    Attributes
    ----------
    name:
        The factory name this dataset was built from.
    values:
        The multiset ``V`` in domain order (sorted ascending).
    params:
        The resolved generation parameters, for reporting.
    """

    name: str
    values: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of tuples."""
        return int(self.values.size)

    @property
    def num_distinct(self) -> int:
        """Realised number of distinct values."""
        return int(kernels.run_lengths(self.values).size)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.name}: n={self.n:,}, distinct={self.num_distinct:,}, "
            f"params={self.params}"
        )


def make_dataset(
    name: str,
    n: int,
    rng: RngLike = None,
    **overrides,
) -> Dataset:
    """Build one of the named experiment datasets with *n* tuples.

    Supported names (see :data:`DATASET_NAMES`):

    - ``zipf0`` .. ``zipf4`` — Zipf with Z equal to the trailing digit.
      Override ``num_distinct`` to change the universe (default ``n/100``).
    - ``unif_dup`` — every value occurs ``duplicates_per_value`` times
      (default 100), the paper's Unif/Dup distribution.
    - ``all_distinct`` — fully duplicate-free integers.
    - ``self_similar`` — 80-20 self-similar distribution (override ``h``).
    - ``normal`` — rounded normal values (override ``mean``, ``std``).
    - ``bimodal`` — two-mode Gaussian mixture (override ``separation``,
      ``weight``, ``scale``) — a stress case for bucket placement.
    """
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ParameterError(
            f"unknown dataset {name!r}; choose one of {DATASET_NAMES}"
        )
    values, params = builder(n, rng, overrides)
    if overrides:
        raise ParameterError(
            f"unsupported overrides for dataset {name!r}: {sorted(overrides)}"
        )
    values = np.sort(values)
    return Dataset(name=name, values=values, params=params)


def _default_zipf_universe(n: int) -> int:
    return max(16, int(n * _ZIPF_UNIVERSE_FRACTION))


def _build_zipf(z: float):
    def build(n: int, rng: RngLike, overrides: dict):
        num_distinct = int(overrides.pop("num_distinct", _default_zipf_universe(n)))
        permute = bool(overrides.pop("permute_values", True))
        values = zipf.zipf_value_set(
            n, num_distinct, z, rng=rng, permute_values=permute
        )
        return values, {"z": z, "num_distinct": num_distinct}

    return build


def _build_unif_dup(n: int, rng: RngLike, overrides: dict):
    duplicates = int(overrides.pop("duplicates_per_value", 100))
    values = distributions.uniform_with_duplicates(n, duplicates)
    return values, {"duplicates_per_value": duplicates}


def _build_all_distinct(n: int, rng: RngLike, overrides: dict):
    spacing = int(overrides.pop("spacing", 1))
    values = distributions.all_distinct(n, spacing=spacing)
    return values, {"spacing": spacing}


def _build_self_similar(n: int, rng: RngLike, overrides: dict):
    h = float(overrides.pop("h", 0.2))
    num_distinct = int(overrides.pop("num_distinct", _default_zipf_universe(n)))
    values = distributions.self_similar_value_set(n, num_distinct, h, rng=rng)
    return values, {"h": h, "num_distinct": num_distinct}


def _build_bimodal(n: int, rng: RngLike, overrides: dict):
    separation = float(overrides.pop("separation", 100.0))
    weight = float(overrides.pop("weight", 0.5))
    scale = float(overrides.pop("scale", 100.0))
    raw = distributions.bimodal_values(
        n, centers=(0.0, separation), weight=weight, rng=rng
    )
    values = np.round(raw * scale).astype(np.int64)
    return values, {"separation": separation, "weight": weight, "scale": scale}


def _build_normal(n: int, rng: RngLike, overrides: dict):
    mean = float(overrides.pop("mean", 0.0))
    std = float(overrides.pop("std", 1.0))
    scale = float(overrides.pop("scale", 10_000.0))
    raw = distributions.normal_values(n, mean, std, rng=rng)
    values = np.round(raw * scale).astype(np.int64)
    return values, {"mean": mean, "std": std, "scale": scale}


_BUILDERS = {
    "zipf0": _build_zipf(0.0),
    "zipf1": _build_zipf(1.0),
    "zipf2": _build_zipf(2.0),
    "zipf3": _build_zipf(3.0),
    "zipf4": _build_zipf(4.0),
    "unif_dup": _build_unif_dup,
    "all_distinct": _build_all_distinct,
    "self_similar": _build_self_similar,
    "normal": _build_normal,
    "bimodal": _build_bimodal,
}
