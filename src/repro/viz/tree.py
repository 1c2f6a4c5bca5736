"""ASCII call-tree rendering (the ``tree()`` views in Figs. 8 of the paper).

Each node prints as ``<metric value> <name>`` with box-drawing
connectors.  An optional ANSI colour ramp encodes the metric magnitude
(green → red), matching Hatchet's terminal output.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..frame import DataFrame

__all__ = ["render_tree"]

_ANSI_RESET = "\033[0m"
# green, cyan, yellow, magenta, red — low to high
_ANSI_RAMP = ["\033[32m", "\033[36m", "\033[33m", "\033[35m", "\033[31m"]


def _colorize(text: str, frac: float) -> str:
    idx = min(int(frac * len(_ANSI_RAMP)), len(_ANSI_RAMP) - 1)
    return f"{_ANSI_RAMP[idx]}{text}{_ANSI_RESET}"


def render_tree(graph, dataframe: DataFrame, metric: str | None,
                precision: int = 3, color: bool = False,
                name_column: str = "name") -> str:
    """Render *graph* with per-node values from *dataframe[metric]*."""
    values: dict[Any, float] = {}
    if metric is not None and metric in dataframe:
        col = dataframe.column(metric)
        for node, v in zip(dataframe.index.values, col):
            key = node[0] if isinstance(node, tuple) else node
            try:
                values[key] = float(v)
            except (TypeError, ValueError):
                values[key] = float("nan")
    finite = [v for v in values.values() if np.isfinite(v)]
    vmin = min(finite) if finite else 0.0
    vmax = max(finite) if finite else 1.0
    span = (vmax - vmin) or 1.0

    lines: list[str] = []

    def label(node) -> str:
        v = values.get(node)
        if v is None or not np.isfinite(v):
            txt = " " * (precision + 2)
        else:
            txt = f"{v:.{precision}f}"
            if color:
                txt = _colorize(txt, (v - vmin) / span)
        return f"{txt} {node.frame.name}"

    def walk(node, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(label(node))
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + label(node))
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, False)

    for root in graph.roots:
        walk(root, "", True, True)
    return "\n".join(lines)
