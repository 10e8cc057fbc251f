"""Monospace table rendering for benchmark and statistics reports.

All benchmark harnesses print their "figure" as a text table whose rows
mirror the series the paper plots; this module gives them one consistent
renderer (column alignment, optional title rule, Markdown export).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["Table"]


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        # Trim float noise but keep meaningful precision for timings.
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


@dataclass
class Table:
    """A simple column-aligned text table.

    >>> t = Table(["n", "sandhills (s)", "osg (s)"], title="Fig. 4")
    >>> t.add_row(10, 41593, 55000)
    >>> t.add_row(300, 9800, 13000)
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    Fig. 4
    n    sandhills (s)   osg (s)
    ---  -------------   -------
    10   41593           55000
    300  9800            13000
    """

    columns: Sequence[str]
    title: str | None = None
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        """Append one row; values are formatted via the shared cell rules."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(values)}"
            )
        self.rows.append([_cell(v) for v in values])

    def _widths(self) -> list[int]:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        return widths

    def render(self) -> str:
        """Render the table with a dashed header rule."""
        widths = self._widths()
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "  ".join("-" * w for w in widths)
        lines.append(header.rstrip())
        lines.append(rule)
        for row in self.rows:
            lines.append(
                "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            )
        return "\n".join(lines)
