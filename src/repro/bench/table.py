"""The one table type every campaign renders through (DESIGN.md 5.2):
padded text for the terminal, RFC-4180 CSV for ``--csv-dir``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

__all__ = ["Column", "Table", "csv_columns", "pivot"]

#: A cell formatter: a ``str.format`` template or a callable of the value.
Format = str | Callable[[Any], Any]


@dataclass(frozen=True)
class Column:
    """One column: ``header``/``text`` for :meth:`Table.text`,
    ``name``/``csv`` for :meth:`Table.csv` (a ``None`` label leaves the
    column out of that rendering).  ``get`` pulls the value out of a row
    — by default the row's item at the column's position, so tuple rows
    need no getter — and the formatter turns it into the cell.
    """

    header: str | None = None
    name: str | None = None
    get: Callable[[Any], Any] | None = None
    text: Format = str
    csv: Format = str
    #: Fixed text width; 0 fits the header and every cell.
    width: int = 0
    align: str = ">"


def csv_columns(*names: str) -> list[Column]:
    """CSV-only positional columns (the long form of a pivoted table)."""
    return [Column(name=name) for name in names]


def pivot(keys: Sequence, header: Callable[[Any], str], text: Format,
          of: Callable[[Any], dict] = lambda row: row[-1]) -> list[Column]:
    """Text columns spreading a row's ``{key: value}`` mapping (``of(row)``,
    by default its last item), one column per key; a key the mapping
    lacks formats ``None``.  The wide-text half of a long-CSV table: the
    long rows go in ``Table(long=...)``."""
    return [
        Column(header(key), get=lambda row, key=key: of(row).get(key), text=text)
        for key in keys
    ]


def _escape(cell: str) -> str:
    if any(ch in cell for ch in (",", '"', "\n")):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@dataclass
class Table:
    """A titled grid with a padded-text and a CSV rendering."""

    title: str
    columns: Sequence[Column] = ()
    rows: Sequence = ()
    footer: str = ""
    #: Text column separator; the header rule is drawn from it.
    sep: str = " | "
    #: The table :meth:`csv` writes instead, when the text is a pivot.
    long: Table | None = None

    def _grid(self, label: str, fmt: str) -> list[list[str]]:
        """Header plus formatted rows of the columns that have ``label``."""
        picked = [(i, c) for i, c in enumerate(self.columns)
                  if getattr(c, label) is not None]
        positional = any(c.get is None for _, c in picked)
        grid = [[getattr(c, label) for _, c in picked]]
        for n, row in enumerate(self.rows):
            if positional and len(row) != len(self.columns):
                raise ValueError(
                    f"row {n} has {len(row)} cells, table has "
                    f"{len(self.columns)} columns"
                )
            cells = []
            for i, c in picked:
                value = row[i] if c.get is None else c.get(row)
                f = getattr(c, fmt)
                cells.append(str(f.format(value) if isinstance(f, str) else f(value)))
            grid.append(cells)
        return grid

    def text(self) -> str:
        """Title, padded grid (when there are text columns) and footer."""
        lines = [self.title]
        columns = [c for c in self.columns if c.header is not None]
        if columns:
            grid = self._grid("header", "text")
            widths = [c.width or max(len(row[i]) for row in grid)
                      for i, c in enumerate(columns)]
            # A cell wider than a fixed width overflows, as str.format does.
            padded = [
                self.sep.join(format(cell, f"{c.align}{w}")
                              for cell, c, w in zip(row, columns, widths))
                for row in grid
            ]
            rule = self.sep.replace(" ", "-").replace("|", "+").join(
                "-" * max(w, len(c.header)) for c, w in zip(columns, widths))
            lines += [padded[0], rule, *padded[1:]]
        if self.footer:
            lines.append(self.footer)
        return "\n".join(lines)

    def csv(self, header: bool = True) -> str:
        """RFC-4180 text of the named columns ("" when there are none)."""
        grid = (self.long or self)._grid("name", "csv")
        if not grid[0]:
            return ""
        return "".join(",".join(map(_escape, row)) + "\n"
                       for row in grid[0 if header else 1:])
