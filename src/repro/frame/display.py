"""Plain-text rendering of DataFrames (the `repr` users see in a REPL).

Mirrors the tabular figures in the paper: hierarchical column keys
render as stacked header rows (Fig. 4's CPU/GPU banner), MultiIndex
rows render with blanked repeats (Fig. 4's node/problem_size rows).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .index import MultiIndex

__all__ = ["format_frame", "format_value", "text_grid"]


def format_value(v: Any, float_fmt: str = "{:.6g}") -> str:
    if v is None:
        return "None"
    if isinstance(v, (float, np.floating)):
        if np.isnan(v):
            return "NaN"
        return float_fmt.format(float(v))
    return str(v)


def text_grid(df, max_rows: int = 40,
              float_fmt: str = "{:.6g}") -> tuple[list[list[str]], int]:
    """The cells of *df*'s table, as the text repr and the SVG table
    draw them; returns ``(grid, index columns)``.

    The grid holds ``df.column_nlevels()`` header rows, then one row
    per shown data row.  Each row is the index cells followed by one
    cell per column.  Repeated MultiIndex prefixes and repeated banner
    cells of the upper column levels are blanked, pandas-style, and
    the index names sit on the last header row.
    """
    shown = min(len(df), max_rows)

    # --- index cells -------------------------------------------------
    if isinstance(df.index, MultiIndex):
        idx_names = [str(nm) if nm is not None else "" for nm in df.index.names]
        idx_rows = [
            [format_value(part, float_fmt) for part in df.index.values[i]]
            for i in range(shown)
        ]
        # blank repeated prefixes, pandas-style
        for i in range(shown - 1, 0, -1):
            for lv in range(len(idx_names)):
                if idx_rows[i][: lv + 1] == idx_rows[i - 1][: lv + 1]:
                    idx_rows[i][lv] = ""
                else:
                    break
    else:
        idx_names = [str(df.index.name) if df.index.name is not None else ""]
        idx_rows = [[format_value(df.index.values[i], float_fmt)] for i in range(shown)]

    # --- column headers (possibly multi-level) -----------------------
    nlevels = df.column_nlevels()
    col_headers: list[list[str]] = []
    for lv in range(nlevels):
        row = []
        for c in df.columns:
            parts = c if isinstance(c, tuple) else (c,)
            row.append(str(parts[lv]) if lv < len(parts) else "")
        col_headers.append(row)
    # blank repeated top-level banners
    for lv in range(nlevels - 1):
        prev = None
        for j, cell in enumerate(col_headers[lv]):
            if cell == prev:
                col_headers[lv][j] = ""
            else:
                prev = cell

    # --- body ---------------------------------------------------------
    body = [
        [format_value(df.column(c)[i], float_fmt) for c in df.columns]
        for i in range(shown)
    ]

    n_idx = len(idx_names)
    grid: list[list[str]] = []
    for lv in range(nlevels):
        left = idx_names if lv == nlevels - 1 else [""] * n_idx
        grid.append(list(left) + col_headers[lv])
    for ir, br in zip(idx_rows, body):
        grid.append(ir + br)
    return grid, n_idx


def format_frame(df, max_rows: int = 40, float_fmt: str = "{:.6g}") -> str:
    n = len(df)
    table, n_idx = text_grid(df, max_rows, float_fmt)
    widths = [
        max(len(row[j]) for row in table) for j in range(n_idx + len(df.columns))
    ]
    lines = []
    for r, row in enumerate(table):
        cells = []
        for j, cell in enumerate(row):
            pad = cell.ljust(widths[j]) if j < n_idx else cell.rjust(widths[j])
            cells.append(pad)
        lines.append("  ".join(cells).rstrip())
    if n > max_rows:
        lines.append(f"... [{n} rows x {len(df.columns)} columns]")
    else:
        lines.append(f"[{n} rows x {len(df.columns)} columns]")
    return "\n".join(lines)
