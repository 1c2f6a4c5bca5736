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
    from .thicket import Thicket

    wanted = set(profiles)
    missing = wanted - set(tk.profile)
    if missing:
        raise KeyError(f"unknown profiles: {sorted(map(str, missing))}")

    meta_mask = tk.metadata.index.isin(wanted)
    new_meta = tk.metadata[meta_mask]

    new_perf = tk.dataframe[tk.dataframe.index.partition(1).row_mask(wanted)]

    return Thicket(tk.graph, new_perf, new_meta,
                   profiles=[p for p in tk.profile if p in wanted],
                   exc_metrics=list(tk.exc_metrics),
                   inc_metrics=list(tk.inc_metrics),
                   default_metric=tk.default_metric)


def filter_stats(tk, predicate: Callable[[dict], bool]):
    """Keep call-tree nodes whose aggregated-statistics row satisfies
    *predicate* (Fig. 9 bottom).

    Returns a new Thicket whose statsframe and performance data are
    restricted to the matching nodes.  The graph keeps its structure;
    nodes without rows simply render without values.
    """
    from .thicket import Thicket

    keep_nodes = [
        node for node, row in tk.statsframe.iterrows() if predicate(row)
    ]
    new_stats = tk.statsframe[tk.statsframe.index.isin(keep_nodes)]
    new_perf = tk.dataframe[tk.dataframe.index.partition(0).row_mask(keep_nodes)]

    out = Thicket(tk.graph, new_perf, tk.metadata.copy(),
                  statsframe=new_stats, profiles=list(tk.profile),
                  exc_metrics=list(tk.exc_metrics),
                  inc_metrics=list(tk.inc_metrics),
                  default_metric=tk.default_metric)
    return out
