"""The fluent QueryMatcher API (paper Fig. 8) and the object dialect.

Example — find paths ``Base_CUDA → ... → *block_128`` exactly as in the
paper::

    query = (
        QueryMatcher()
        .match(".", lambda row: row["name"].apply(
            lambda x: x == "Base_CUDA").all())
        .rel("*")
        .rel(".", lambda row: row["name"].apply(
            lambda x: x.endswith("block_128")).all())
    )

Object dialect — the same query as data::

    query = QueryMatcher.from_spec([
        (".", {"name": "Base_CUDA"}),
        ("*",),
        (".", {"name": "~.*block_128"}),
    ])
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from .primitives import AttrRef, QueryNode, attr_predicate, attr_refs

__all__ = ["QueryMatcher"]


class QueryMatcher:
    """A compiled sequence of query nodes.

    ``unbound_refs`` holds ``(identifier, AttrRef)`` pairs for WHERE
    comparisons that name an identifier never bound in ``MATCH`` (only
    the string dialect can produce these); validation rejects them
    since such comparisons silently constrain nothing.
    """

    def __init__(self, nodes: Iterable[QueryNode] | None = None):
        self.query_nodes: list[QueryNode] = list(nodes or [])
        self.unbound_refs: list[tuple[str, AttrRef]] = []

    # ------------------------------------------------------------------
    # fluent construction
    # ------------------------------------------------------------------
    def match(self, quantifier: str | int = ".",
              predicate: Callable[[Any], bool] | None = None) -> "QueryMatcher":
        """Set the first query node (resets any existing query)."""
        self.query_nodes = [QueryNode(quantifier, predicate)]
        return self

    def rel(self, quantifier: str | int = ".",
            predicate: Callable[[Any], bool] | None = None) -> "QueryMatcher":
        """Append a query node related to (descendant of) the previous one."""
        if not self.query_nodes:
            raise ValueError("call match() before rel()")
        self.query_nodes.append(QueryNode(quantifier, predicate))
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Sequence[tuple]) -> "QueryMatcher":
        """Build a matcher from the object dialect.

        Each element is ``(quantifier,)`` or ``(quantifier, attr_dict)``.
        """
        nodes = []
        for step in spec:
            if len(step) == 1:
                nodes.append(QueryNode(step[0], refs=[]))
            elif len(step) == 2:
                quantifier, attrs = step
                if isinstance(attrs, dict):
                    nodes.append(QueryNode(quantifier, attr_predicate(attrs),
                                           refs=attr_refs(attrs)))
                else:
                    nodes.append(QueryNode(quantifier, attrs))
            else:
                raise ValueError(f"bad query step {step!r}")
        return cls(nodes)

    def __len__(self) -> int:
        return len(self.query_nodes)

    def __repr__(self) -> str:
        return f"QueryMatcher({[q.quantifier for q in self.query_nodes]!r})"

    # ------------------------------------------------------------------
    def apply(self, graph, row_view: Callable[[Any], Any],
              tests: Sequence[Callable[[Any], bool] | None] | None = None
              ) -> list:
        """Run the query; returns the matched call-tree nodes.

        *row_view* maps a node to the mapping its predicates receive;
        ``tests[i]``, where given, decides query node *i* for a node
        instead (see :func:`repro.query.match_paths`).
        """
        from .engine import match_graph

        return match_graph(graph, self.query_nodes, row_view, tests)
