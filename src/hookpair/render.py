"""Plain-text drawing of cell sets.

One text row per diagram row, top row first, one glyph per column starting at
column 1 so that horizontally shifted regions keep their absolute offset.
Cells on or below a supplied diagonal are filled, cells above it are hollow,
and marked cells get a dotted glyph.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .diagrams import Cell, CellSet
from .errors import EmptySet

__all__ = ["render_ascii"]

FILLED = "■"
HOLLOW = "□"
DOTTED = "◉"


def render_ascii(g: CellSet, diag=None, marks: Optional[Iterable[Cell]] = None) -> str:
    """Draw g as a character grid.

    diag may be a DiagonalSpec (or any object with a ``total`` attribute);
    marks is a collection of cells to highlight, typically an arm slice.
    """
    if not len(g):
        raise EmptySet("cannot render an empty cell set")
    marked = set(marks or ())
    rmin, rmax, _, cmax = g.bounds()
    lines = []
    for r in range(rmax, rmin - 1, -1):
        glyphs = []
        for c in range(1, cmax + 1):
            cell = (r, c)
            if cell not in g:
                glyphs.append(" ")
            elif cell in marked:
                glyphs.append(DOTTED)
            elif diag is not None and r + c <= diag.total:
                glyphs.append(FILLED)
            else:
                glyphs.append(HOLLOW)
        lines.append(" ".join(glyphs).rstrip())
    return "\n".join(lines)
