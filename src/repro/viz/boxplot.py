"""Per-node box plots of ensemble metric distributions.

Complements the Fig. 12 histogram insets: one Tukey box per call-tree
node showing the spread of a metric across the ensemble's profiles,
with whisker fences from :func:`repro.core.stats.boxplot_stats` and
fliers drawn individually.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from .color import CATEGORICAL
from .histogram import node_metric_values
from .svg import SVGCanvas

__all__ = ["boxplot_svg", "boxplot_text"]


def _components(values: np.ndarray, whisker: float = 1.5) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - whisker * iqr
    hi_fence = q3 + whisker * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    return {
        "q1": float(q1), "median": float(med), "q3": float(q3),
        "lo": float(inside.min()) if len(inside) else float(q1),
        "hi": float(inside.max()) if len(inside) else float(q3),
        "fliers": [float(v) for v in values
                   if v < lo_fence or v > hi_fence],
    }


def boxplot_text(tk, node_names: Sequence[str], column: Hashable,
                 width: int = 50) -> str:
    """ASCII box plots, one row per node, on a shared axis."""
    comps = {}
    all_vals: list[float] = []
    for name in node_names:
        values = node_metric_values(tk, name, column)
        if len(values) == 0:
            continue
        comps[name] = _components(values)
        all_vals.extend(values)
    if not comps:
        return "(no data)"
    lo = min(all_vals)
    hi = max(all_vals)
    span = (hi - lo) or 1.0

    def col_of(v: float) -> int:
        return int((v - lo) / span * (width - 1))

    name_w = max(len(n) for n in comps)
    lines = [f"{'':>{name_w}}  [{lo:.4g} .. {hi:.4g}]  {column}"]
    for name, c in comps.items():
        row = [" "] * width
        for x in range(col_of(c["lo"]), col_of(c["hi"]) + 1):
            row[x] = "-"
        for x in range(col_of(c["q1"]), col_of(c["q3"]) + 1):
            row[x] = "▒"
        row[col_of(c["median"])] = "█"
        for v in c["fliers"]:
            row[col_of(v)] = "o"
        lines.append(f"{name:>{name_w}}  |{''.join(row)}|")
    return "\n".join(lines)


def boxplot_svg(tk, node_names: Sequence[str], column: Hashable,
                width: int = 520, row_h: int = 34,
                title: str = "") -> SVGCanvas:
    """SVG box plots on a shared horizontal axis."""
    comps = {}
    all_vals: list[float] = []
    for name in node_names:
        values = node_metric_values(tk, name, column)
        if len(values):
            comps[name] = _components(values)
            all_vals.extend(values)
    label_w, right, top = 200, 20, 44
    height = top + row_h * max(len(comps), 1) + 30
    svg = SVGCanvas(width, height)
    if title:
        svg.text(10, 20, title, size=13)
    if not comps:
        return svg
    lo, hi = min(all_vals), max(all_vals)
    pad = (hi - lo) * 0.05 or 1.0
    lo, hi = lo - pad, hi + pad

    def sx(v: float) -> float:
        return label_w + (v - lo) / (hi - lo) * (width - label_w - right)

    axis_y = top - 10
    svg.line(label_w, axis_y, width - right, axis_y, stroke="#888888")
    svg.text(label_w, axis_y - 4, f"{lo:.4g}", size=9)
    svg.text(width - right, axis_y - 4, f"{hi:.4g}", size=9, anchor="end")

    for i, (name, c) in enumerate(comps.items()):
        y = top + i * row_h + row_h / 2
        color = CATEGORICAL[i % len(CATEGORICAL)]
        svg.text(label_w - 8, y + 4, name, size=10, anchor="end")
        svg.line(sx(c["lo"]), y, sx(c["hi"]), y, stroke="#555555")
        svg.line(sx(c["lo"]), y - 6, sx(c["lo"]), y + 6, stroke="#555555")
        svg.line(sx(c["hi"]), y - 6, sx(c["hi"]), y + 6, stroke="#555555")
        svg.rect(sx(c["q1"]), y - 9, max(sx(c["q3"]) - sx(c["q1"]), 1.0), 18,
                 fill=color, opacity=0.55,
                 title=(f"{name}: q1={c['q1']:.4g} med={c['median']:.4g} "
                        f"q3={c['q3']:.4g}"))
        svg.line(sx(c["median"]), y - 9, sx(c["median"]), y + 9,
                 stroke="#111111", width=1.6)
        for v in c["fliers"]:
            svg.circle(sx(v), y, 2.5, fill="#EE6677",
                       title=f"{name} outlier: {v:.6g}")
    return svg
