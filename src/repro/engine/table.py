"""Minimal table/column abstractions.

The engine layer plays the role of the SQL Server catalog surrounding the
paper's prototype: a :class:`Table` owns named :class:`Column` value arrays
and can materialise any column as a simulated on-disk heap file with a
chosen physical layout.
"""

from __future__ import annotations

import numpy as np

from .._rng import RngLike
from ..exceptions import CatalogError, ParameterError
from ..storage.heapfile import HeapFile
from ..storage.record import RecordSpec

__all__ = ["Column", "Table"]


class Column:
    """A named attribute with its value multiset.

    Float values must be finite: NaN has no place in the domain order that
    every histogram, sample and estimate is built on.
    """

    def __init__(self, name: str, values: np.ndarray):
        if not name:
            raise ParameterError("column name must be non-empty")
        values = np.asarray(values)
        if values.ndim != 1:
            raise ParameterError(
                f"column values must be one-dimensional, got shape {values.shape}"
            )
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ParameterError(
                f"column {name!r} holds NaN or infinite values"
            )
        self.name = name
        self._values = values

    @property
    def values(self) -> np.ndarray:
        """The column's values as a numpy array."""
        return self._values

    @property
    def num_rows(self) -> int:
        """Number of rows in the column."""
        return int(self._values.size)

    def sorted_values(self) -> np.ndarray:
        """Values in domain order (ground truth for experiments)."""
        return np.sort(self._values)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, rows={self.num_rows})"


class Table:
    """A named collection of equal-length columns."""

    def __init__(self, name: str, columns: dict[str, np.ndarray] | None = None):
        if not name:
            raise ParameterError("table name must be non-empty")
        self.name = name
        self._columns: dict[str, Column] = {}
        if columns:
            for col_name, values in columns.items():
                self.add_column(col_name, values)

    def add_column(self, name: str, values: np.ndarray) -> Column:
        """Add a column; all columns must have the same row count."""
        if name in self._columns:
            raise CatalogError(
                f"table {self.name!r} already has a column {name!r}"
            )
        column = Column(name, values)
        if self._columns:
            existing = next(iter(self._columns.values()))
            if column.num_rows != existing.num_rows:
                raise ParameterError(
                    f"column {name!r} has {column.num_rows} rows; table "
                    f"{self.name!r} has {existing.num_rows}"
                )
        self._columns[name] = column
        return column

    def column(self, name: str) -> Column:
        """Fetch a column by name (raises when missing)."""
        if name not in self._columns:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}"
            )
        return self._columns[name]

    @property
    def column_names(self) -> list[str]:
        """Column names, in declaration order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        if not self._columns:
            return 0
        return next(iter(self._columns.values())).num_rows

    def to_heapfile(
        self,
        column_name: str,
        layout: str = "random",
        rng: RngLike = None,
        spec: RecordSpec | None = None,
        blocking_factor: int | None = None,
        cluster_fraction: float = 0.2,
    ) -> HeapFile:
        """Materialise *column_name* as a simulated on-disk heap file."""
        column = self.column(column_name)
        return HeapFile.from_values(
            column.values,
            layout=layout,
            rng=rng,
            spec=spec,
            blocking_factor=blocking_factor,
            cluster_fraction=cluster_fraction,
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={self.column_names})"
        )
