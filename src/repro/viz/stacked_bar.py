"""The tree+table top-down visualization (Fig. 14).

For each call-tree node of interest, renders one stacked bar per
profile — the four top-down fractions stacked to height 1 — grouped and
sorted by an independent variable (problem size in the paper).  The SVG
version places the call tree on the left and bar groups on the right,
mirroring the notebook-embedded design; a text version supports
terminal inspection.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.stats import grouped_by_metadata
from ..topdown import TOPDOWN_METRICS
from .color import TOPDOWN_COLORS
from .svg import SVGCanvas

__all__ = ["topdown_table", "topdown_text", "topdown_svg"]


def topdown_table(tk, group_column: str,
                  metrics: Sequence[str] = TOPDOWN_METRICS,
                  nodes: Sequence[str] | None = None):
    """Collect (node, group-value) → mean top-down fractions.

    *group_column* is a metadata column (e.g. ``problem_size``).
    Returns an ordered dict keyed by node name (nodes sharing a name
    are merged), each value an ordered dict group-value → {metric:
    mean fraction}, grouped by :func:`repro.core.stats.grouped_by_metadata`;
    a metric with no values in a group reads 0.0.
    """
    cols = [m for m in metrics if m in tk.dataframe]
    acc: dict[str, dict] = {}
    for m in cols:
        for node, by_group in grouped_by_metadata(tk, m, group_column).items():
            name = node.frame.name
            if nodes is not None and name not in nodes:
                continue
            for group, values in by_group.items():
                acc.setdefault(name, {}).setdefault(group, {}).setdefault(
                    m, []).append(values)
    return {
        name: {
            group: {m: (float(np.mean(np.concatenate(groups[group][m])))
                        if m in groups[group] else 0.0) for m in cols}
            for group in sorted(groups)
        }
        for name, groups in acc.items()
    }


def topdown_text(tk, group_column: str,
                 metrics: Sequence[str] = TOPDOWN_METRICS,
                 nodes: Sequence[str] | None = None, width: int = 30) -> str:
    """Terminal rendering: one bar line per (node, group)."""
    glyphs = {"Retiring": "R", "Frontend bound": "F",
              "Backend bound": "B", "Bad speculation": "S"}
    table = topdown_table(tk, group_column, metrics, nodes)
    lines = []
    for name, groups in table.items():
        lines.append(name)
        for group, fractions in groups.items():
            bar = ""
            for m in metrics:
                n = int(round(width * fractions.get(m, 0.0)))
                bar += glyphs.get(m, "?") * n
            lines.append(f"  {group!s:>10}  |{bar[:width].ljust(width)}|")
    legend = "  ".join(f"{g}={m}" for m, g in glyphs.items())
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def topdown_svg(tk, group_column: str,
                metrics: Sequence[str] = TOPDOWN_METRICS,
                nodes: Sequence[str] | None = None,
                bar_w: int = 46, bar_h: int = 90) -> SVGCanvas:
    """SVG tree+table view: node labels left, grouped stacked bars right."""
    table = topdown_table(tk, group_column, metrics, nodes)
    label_w = 260
    n_groups = max((len(g) for g in table.values()), default=0)
    row_h = bar_h + 36
    width = label_w + n_groups * (bar_w + 8) + 40
    height = 40 + row_h * len(table) + 30
    svg = SVGCanvas(width, height)
    svg.text(10, 20, f"Top-down by {group_column}", size=13)

    for r, (name, groups) in enumerate(table.items()):
        y0 = 40 + r * row_h
        svg.text(label_w - 10, y0 + bar_h / 2, name, size=10, anchor="end")
        for gi, (group, fractions) in enumerate(groups.items()):
            x = label_w + gi * (bar_w + 8)
            y = y0 + bar_h
            for m in metrics:
                frac = fractions.get(m, 0.0)
                h = bar_h * frac
                y -= h
                svg.rect(x, y, bar_w, h,
                         fill=TOPDOWN_COLORS.get(m, "#999999"),
                         title=f"{name} @ {group}: {m} = {frac:.3f}")
            svg.text(x + bar_w / 2, y0 + bar_h + 14, str(group), size=8,
                     anchor="middle")

    # legend
    lx = 10
    ly = height - 14
    for m in metrics:
        svg.rect(lx, ly - 10, 12, 12, fill=TOPDOWN_COLORS.get(m, "#999999"))
        svg.text(lx + 16, ly, m, size=10)
        lx += 16 + 8 * len(m) + 24
    return svg
