"""Hierarchical composition of Thickets (§3.2.2, Figs. 4 and 15).

``concat_thickets(axis="columns")`` composes Thickets captured with
different tools or on different architectures: their call trees are
unified, rows are matched on the ``(node, profile-index)`` hierarchical
key, and each input's metric columns appear under its header in a
two-level column index (e.g. ``("CPU", "time (exc)")``).

Because profile *hashes* differ across machines, callers pass
``metadata_key`` (e.g. ``"problem_size"``): each input thicket is
re-indexed by that metadata column so rows line up the way the paper's
Fig. 4 aligns CPU and GPU runs of the same problem size.

``axis="index"`` simply stacks additional profiles into one thicket.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..frame import DataFrame, Index, MultiIndex, concat_columns, concat_rows
from ..graph import union_many

__all__ = ["concat_thickets"]


def concat_thickets(thickets: Sequence[Any], axis: str = "columns",
                    headers: Sequence[str] | None = None,
                    metadata_key: str | None = None,
                    match_on: str = "path"):
    """Compose multiple Thickets into one; see module docstring.

    ``match_on`` controls call-tree node identification across inputs:
    ``"path"`` (default) identifies nodes with equal root paths —
    correct when all inputs share one tree; ``"name"`` identifies nodes
    by frame name, which is how the paper's Fig. 4/15 align kernels
    whose trees differ at the root (``Base_Sequential`` vs
    ``Base_CUDA``).
    """
    from .thicket import Thicket, _in_tree_order

    thickets = list(thickets)
    if len(thickets) < 2:
        raise ValueError("need at least two thickets to concatenate")
    if axis == "index":
        return _concat_index(thickets)
    if axis != "columns":
        raise ValueError(f"axis must be 'columns' or 'index', got {axis!r}")
    if headers is None:
        headers = [f"thicket_{i}" for i in range(len(thickets))]
    if len(headers) != len(thickets):
        raise ValueError("headers must match number of thickets")

    if match_on == "path":
        union_graph, maps = union_many([tk.graph for tk in thickets])
    elif match_on == "name":
        union_graph, maps = _match_by_name(thickets)
    else:
        raise ValueError(f"match_on must be 'path' or 'name', got {match_on!r}")

    frames: list[DataFrame] = []
    metas: list[DataFrame] = []
    for tk, mapping in zip(thickets, maps):
        # rows of nodes without a union node (names not shared) drop out
        df = tk.dataframe[tk.dataframe.index.partition(0).row_mask(mapping)]
        index = df.index.relabel(0, mapping)
        if metadata_key is not None:
            index = index.relabel(1, {
                pid: tk.metadata.loc[pid][metadata_key]
                for pid in index.partition(1).uniques})
        df.index = index.rename(["node", metadata_key or "profile"])
        frames.append(df)

        meta = tk.metadata.copy()
        if metadata_key is not None:
            meta = meta.reset_index().set_index(metadata_key, drop=False)
        metas.append(meta)

    perf = concat_columns(frames, keys=list(headers), join="inner")
    perf = _in_tree_order(perf, union_graph,
                          _profile_ranks(perf.index.partition(1).uniques))

    metadata = concat_columns(metas, keys=list(headers), join="inner")

    exc = []
    inc = []
    default = None
    for header, tk in zip(headers, thickets):
        exc.extend((header, m) for m in tk.exc_metrics)
        inc.extend((header, m) for m in tk.inc_metrics)
        if default is None and tk.default_metric is not None:
            default = (header, tk.default_metric)

    out = Thicket(union_graph, perf, metadata,
                  profiles=list(metadata.index.values),
                  exc_metrics=exc, inc_metrics=inc, default_metric=default)
    return out


def _match_by_name(thickets: list[Any]):
    """Identify nodes across thickets by frame name.

    Only the nodes a thicket measures (those with performance rows)
    take part, so a filtered thicket that still carries the full
    ensemble graph matches like one composed from its profiles alone.
    The composed graph is the first thicket's tree squashed to the
    measured nodes whose names every input measures (duplicate names
    within one tree resolve to the first occurrence in traversal
    order).
    """
    from ..graph.squash import squash_graph

    measured = []
    for tk in thickets:
        rows = set(tk.dataframe.index.partition(0).uniques)
        measured.append([n for n in tk.graph if n in rows])

    shared: set[str] | None = None
    for nodes in measured:
        names = {n.frame.name for n in nodes}
        shared = names if shared is None else (shared & names)
    shared = shared or set()

    keep = [n for n in measured[0] if n.frame.name in shared]
    new_graph, base_map = squash_graph(thickets[0].graph, set(keep))
    name_to_new: dict[str, Any] = {}
    for node in keep:
        name_to_new.setdefault(node.frame.name, base_map[node])

    maps = []
    for nodes in measured:
        mapping = {}
        seen: set[str] = set()
        for node in nodes:
            name = node.frame.name
            if name in name_to_new and name not in seen:
                mapping[node] = name_to_new[name]
                seen.add(name)
        maps.append(mapping)
    return new_graph, maps


def _concat_index(thickets: list[Any]):
    """Stack profiles of multiple thickets into one (rows axis)."""
    from .thicket import Thicket, _in_tree_order, _metric_union

    union_graph, maps = union_many([tk.graph for tk in thickets])

    profiles = [p for tk in thickets for p in tk.profile]
    if len(set(profiles)) != len(profiles):
        raise ValueError("duplicate profile ids across thickets")

    perf = concat_rows([tk.dataframe for tk in thickets])
    perf.index = MultiIndex.concat([
        tk.dataframe.index.relabel(0, mapping)
        for tk, mapping in zip(thickets, maps)]).rename(["node", "profile"])
    perf = _in_tree_order(perf, union_graph,
                          {p: i for i, p in enumerate(profiles)})

    metadata = concat_rows([tk.metadata for tk in thickets])
    metadata.index = Index(profiles, name="profile")

    return Thicket(union_graph, perf, metadata, profiles=profiles,
                   exc_metrics=_metric_union(tk.exc_metrics for tk in thickets),
                   inc_metrics=_metric_union(tk.inc_metrics for tk in thickets),
                   default_metric=thickets[0].default_metric)


def _profile_ranks(profiles: list) -> dict:
    """Column composition's profile order: numbers (and strings that
    parse as one) first, by value, then every other profile by ``str``.

    The rule ranks the distinct profiles; profiles it cannot tell apart
    share a rank, so their rows keep their order.
    """
    keys = {p: _orderable(p) for p in profiles}
    rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    return {p: rank[k] for p, k in keys.items()}


def _orderable(value: Any):
    try:
        return (0, float(value))
    except (TypeError, ValueError):
        return (1, str(value))
