"""SVG rendering of DataFrames — the paper's table figures.

Figs. 4-7, 9, 13, 15 and 16 are screenshots of (multi-indexed) tables;
this renderer draws the same artifact headlessly: banner rows for
hierarchical column keys, blanked repeats for MultiIndex rows, and
zebra striping.
"""

from __future__ import annotations

from ..frame import DataFrame
from ..frame.display import text_grid
from .svg import SVGCanvas

__all__ = ["table_svg"]


def table_svg(df: DataFrame, title: str = "", max_rows: int = 40,
              font_size: int = 11, float_fmt: str = "{:.6g}") -> SVGCanvas:
    """Render *df* as an SVG table."""
    grid, n_idx = text_grid(df, max_rows, float_fmt)
    nlevels = df.column_nlevels()
    n_cols = n_idx + len(df.columns)
    char_w = font_size * 0.62
    col_w = [
        max(len(row[j]) for row in grid) * char_w + 14
        for j in range(n_cols)
    ]
    row_h = font_size + 10
    top = 30 if title else 8
    width = int(sum(col_w) + 16)
    height = int(top + row_h * len(grid) + 12)

    svg = SVGCanvas(width, height)
    if title:
        svg.text(8, 20, title, size=font_size + 2)

    y = top
    for r, row in enumerate(grid):
        is_header = r < nlevels
        if not is_header and (r - nlevels) % 2 == 1:
            svg.rect(8, y, sum(col_w), row_h, fill="#f2f2f2")
        x = 8
        for j, cell in enumerate(row):
            anchor = "start" if j < n_idx else "end"
            tx = x + 6 if j < n_idx else x + col_w[j] - 6
            svg.text(tx, y + row_h - 7, cell, size=font_size,
                     anchor=anchor,
                     fill="#000000" if is_header else "#222222",
                     family="monospace")
            x += col_w[j]
        if is_header and r == nlevels - 1:
            svg.line(8, y + row_h, 8 + sum(col_w), y + row_h,
                     stroke="#333333")
        y += row_h
    if len(df) > max_rows:
        svg.text(8, y + row_h - 7, f"... ({len(df)} rows)", size=font_size)
    return svg
