"""Plain-text reporting for experiment series.

Benchmarks render the same rows/series the paper's figures plot; these
helpers lay them out as aligned ASCII tables, so the committed
``benchmarks/results/*.txt`` files read directly against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["format_table", "Series", "format_series", "paper_note"]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render *rows* under *headers* with aligned columns."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


@dataclass
class Series:
    """One named measurement series: parallel x/y sequences plus labels."""

    label: str
    x_name: str
    y_name: str
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)

    def add(self, x, y) -> None:
        """Append one (x, y) measurement point."""
        self.x.append(x)
        self.y.append(y)

    def rows(self) -> list[tuple]:
        """The series as (x, y) rows."""
        return list(zip(self.x, self.y))


def format_series(title: str, series_list: Sequence[Series]) -> str:
    """Render one or more series sharing an x-axis as a single table."""
    if not series_list:
        return title
    first = series_list[0]
    headers = [first.x_name] + [
        s.label if len(series_list) > 1 else s.y_name for s in series_list
    ]
    rows = []
    for i, x in enumerate(first.x):
        row = [x]
        for s in series_list:
            row.append(s.y[i] if i < len(s.y) else "")
        rows.append(row)
    return f"{title}\n{format_table(headers, rows)}"


def paper_note(expected: str, caveat: str = "") -> str:
    """A standard 'paper expects' banner for benchmark output."""
    note = f"paper expectation: {expected}"
    if caveat:
        note += f"\nnote: {caveat}"
    return note
