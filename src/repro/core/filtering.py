"""Filtering operations over Thicket components (§4.1.1, Fig. 6/9).

All filters are non-destructive: they return a **new** Thicket with the
selected profiles/nodes, leaving the original intact (the paper calls
this out explicitly to avoid unintended modification).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["filter_metadata", "filter_profile", "filter_stats"]


def filter_metadata(tk, predicate: Callable[[dict], bool]):
    """Keep profiles whose metadata row satisfies *predicate*.

    The predicate receives one metadata row as a dict, exactly like the
    paper's ``t_obj.filter_metadata(lambda x: x["compiler"] == ...)``.
    """
    keep = [
        pid for pid, row in tk.metadata.iterrows() if predicate(row)
    ]
    return filter_profile(tk, keep)


def filter_profile(tk, profiles: Sequence[Any]):
    """Keep only the given profile ids (helper shared by filters/groupby)."""
    wanted = set(profiles)
    missing = wanted - set(tk.profile)
    if missing:
        raise KeyError(f"unknown profiles: {sorted(map(str, missing))}")

    return tk._derive(
        tk.dataframe[tk.dataframe.index.partition(1).row_mask(wanted)],
        metadata=tk.metadata[tk.metadata.index.isin(wanted)],
        profiles=[p for p in tk.profile if p in wanted])


def filter_stats(tk, predicate: Callable[[dict], bool]):
    """Keep call-tree nodes whose aggregated-statistics row satisfies
    *predicate* (Fig. 9 bottom).

    Returns a new Thicket whose statsframe and performance data are
    restricted to the matching nodes.  The graph keeps its structure;
    nodes without rows simply render without values.
    """
    keep_nodes = [
        node for node, row in tk.statsframe.iterrows() if predicate(row)
    ]
    return tk._derive(
        tk.dataframe[tk.dataframe.index.partition(0).row_mask(keep_nodes)],
        statsframe=tk.statsframe[tk.statsframe.index.isin(keep_nodes)])
