"""Per-node histograms (Fig. 12 insets).

Shows the distribution of one metric for one call-tree node across the
ensemble's profiles — the "dive deeper into the outliers" step of the
case study.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .svg import SVGCanvas

__all__ = ["histogram_counts", "histogram_text", "histogram_svg",
           "node_metric_values"]


def node_metric_values(tk, node_name: str, column: Hashable) -> np.ndarray:
    """All per-profile values of *column* for the node named *node_name*,
    in row order."""
    part = tk.dataframe.index.partition(0)
    named = np.fromiter((n.frame.name == node_name for n in part.uniques),
                        dtype=bool, count=len(part.uniques))
    cells = tk.dataframe.column(column)[named[part.codes]]
    return np.asarray([float(v) for v in cells
                       if v is not None and np.isfinite(v)])


def histogram_counts(values: np.ndarray, bins: int = 10
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, edges)`` via numpy, tolerant of empty input."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.zeros(bins, dtype=int), np.linspace(0, 1, bins + 1)
    return np.histogram(values, bins=bins)


def histogram_text(values: np.ndarray, bins: int = 10, width: int = 40,
                   title: str = "") -> str:
    """ASCII histogram with one bar row per bin."""
    counts, edges = histogram_counts(values, bins)
    peak = counts.max() or 1
    lines = [title] if title else []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "█" * int(round(width * c / peak))
        lines.append(f"[{lo:10.4g}, {hi:10.4g})  {bar} {c}")
    return "\n".join(lines)


def histogram_svg(values: np.ndarray, bins: int = 10, width: int = 320,
                  height: int = 200, title: str = "",
                  fill: str = "#4477AA") -> SVGCanvas:
    counts, edges = histogram_counts(values, bins)
    svg = SVGCanvas(width, height)
    left, bottom, top = 40, height - 30, 30
    if title:
        svg.text(width / 2, 18, title, size=12, anchor="middle")
    peak = counts.max() or 1
    plot_w = width - left - 10
    plot_h = bottom - top
    bar_w = plot_w / len(counts)
    for i, c in enumerate(counts):
        h = plot_h * c / peak
        svg.rect(left + i * bar_w + 1, bottom - h, bar_w - 2, h, fill=fill,
                 title=f"[{edges[i]:.4g}, {edges[i+1]:.4g}): {c}")
    svg.line(left, bottom, left + plot_w, bottom, stroke="#444444")
    svg.line(left, bottom, left, top, stroke="#444444")
    svg.text(left, bottom + 14, f"{edges[0]:.4g}", size=9)
    svg.text(left + plot_w, bottom + 14, f"{edges[-1]:.4g}", size=9,
             anchor="end")
    svg.text(left - 4, top + 8, str(int(peak)), size=9, anchor="end")
    return svg
