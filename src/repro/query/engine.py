"""Path-matching engine: regex-style matching of queries over call trees.

A query matches a *downward path* (contiguous parent→child chain).
Matching starts at any node; the union of all nodes on all matched
paths is the result (those are the rows Thicket keeps).  The engine is
a backtracking walk with per-(node, query-position) memoization of
failures, linear in practice on call trees.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..obs import counter as obs_counter
from ..obs import span as obs_span
from .primitives import QueryNode

__all__ = ["match_graph", "match_paths"]

NodeTest = Callable[[Any], bool]


def match_paths(graph, query: list[QueryNode],
                row_view: Callable[[Any], Any],
                tests: Sequence[NodeTest | None] | None = None) -> list[tuple]:
    """All matched paths, each a tuple of call-tree nodes.

    Query node *qi* holds for a node when ``tests[qi](node)`` is true,
    or, without such a test, when its predicate holds for
    ``row_view(node)``.
    """
    return _paths(graph.node_order(), query, row_view, tests)


def _paths(order: list, query: list[QueryNode],
           row_view: Callable[[Any], Any],
           tests: Sequence[NodeTest | None] | None) -> list[tuple]:
    tests = tests or [None] * len(query)
    pred_cache: dict[tuple[Any, int], bool] = {}

    def satisfied(node, qi: int) -> bool:
        key = (node, qi)
        if key not in pred_cache:
            test = tests[qi]
            pred_cache[key] = (test(node) if test is not None
                               else query[qi].matches(row_view(node)))
        return pred_cache[key]

    results: list[tuple] = []

    def walk(node, qi: int, taken: int, path: tuple) -> None:
        """Try to extend *path* with *node* against query node *qi*."""
        q = query[qi]
        # Option A: skip to the next query node without consuming, if the
        # current one already satisfied its minimum.
        if taken >= q.min_count and qi + 1 < len(query):
            walk(node, qi + 1, 0, path)
        # Option B: consume this node for the current query node.
        if (q.max_count is None or taken < q.max_count) and satisfied(node, qi):
            new_path = path + (node,)
            new_taken = taken + 1
            if qi == len(query) - 1 and new_taken >= q.min_count:
                results.append(new_path)
            for child in node.children:
                walk(child, qi, new_taken, new_path)

    def start(node) -> None:
        # a path may begin at this node with query position 0, or, when
        # leading query nodes allow zero matches, at a later position.
        qi = 0
        walk(node, qi, 0, ())
        while qi + 1 < len(query) and query[qi].min_count == 0:
            qi += 1
            walk(node, qi, 0, ())

    with obs_span("query.match_paths", query_len=len(query)) as s:
        for node in order:
            start(node)
        s.set("paths", len(results))
        obs_counter("query.predicate_evals", len(pred_cache))
        obs_counter("query.paths_matched", len(results))
    return results


def match_graph(graph, query: list[QueryNode],
                row_view: Callable[[Any], Any],
                tests: Sequence[NodeTest | None] | None = None) -> list:
    """Union of nodes over all matched paths, in graph traversal order.

    *tests* is as for :func:`match_paths`.
    """
    if not query:
        return []
    with obs_span("query.match_graph", query_len=len(query)) as s:
        order = graph.node_order()
        matched = {node for path in _paths(order, query, row_view, tests)
                   for node in path}
        keep = [node for node in order if node in matched]
        s.set("matched_nodes", len(keep))
    return keep
