"""Static validation of call-path queries against a thicket.

A query over an ensemble fails *late* by default: a misspelled metric
name simply never matches (the predicate swallows the ``KeyError``),
a numeric comparison on a string column is silently false for every
node, and a quantifier sequence longer than the call tree is deep
backtracks over the whole graph before returning nothing.  Scripted
analysis (Cankur et al.; Pipit) needs those mistakes surfaced *before*
matching runs.

:func:`validate_query` cross-checks the statically known structure of
a query — the :class:`~repro.query.primitives.AttrRef` records the
string and object dialects attach to each query node — against the
thicket it is about to run on:

* every referenced column must exist in the performance table, with
  did-you-mean suggestions drawn from both the performance and
  metadata tables (and a dedicated hint when the name is a metadata
  column, which is per-profile, not per-node);
* operators must be type-compatible with the column: no regex match
  against a float metric, no ordering comparison against a string
  column, no string literal compared with a numeric one;
* regex literals must compile;
* ``WHERE`` comparisons must reference identifiers bound in ``MATCH``;
* the quantifier sequence must be satisfiable by *some* downward path
  of the call tree (``sum(min_count)`` bounded by the tree depth), and
  a fixed zero-width step must not carry a predicate;
* hierarchical (tuple) column references must name an existing top
  level of a columnar-joined thicket.

Fluent-API matchers built from raw callables carry no refs
(``QueryNode.refs is None``); for those only the quantifier checks
apply — an opaque predicate cannot be inspected.

All violations are collected and raised together as one
:class:`repro.errors.QueryValidationError`.
"""

from __future__ import annotations

import difflib
import re
from typing import Any, Sequence

import numpy as np

from ..errors import QueryValidationError
from ..obs import span as obs_span
from .matcher import QueryMatcher
from .primitives import AttrRef

__all__ = ["validate_query", "graph_depth"]


def graph_depth(graph) -> int:
    """Length (in nodes) of the longest root→leaf downward path."""
    best = 0
    stack = [(root, 1) for root in graph.roots]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        for child in node.children:
            stack.append((child, depth + 1))
    return best


def _coerce_matcher(query) -> QueryMatcher:
    """Accept a QueryMatcher, a string-dialect query, or an object spec."""
    if isinstance(query, QueryMatcher):
        return query
    if isinstance(query, str):
        from .dialect import parse_string_dialect

        return parse_string_dialect(query)
    if isinstance(query, (list, tuple)):
        return QueryMatcher.from_spec(query)
    raise TypeError(
        f"cannot validate a {type(query).__name__}: expected a "
        f"QueryMatcher, a string-dialect query, or an object-dialect spec")


def _column_kind(values: np.ndarray) -> str:
    """Classify a column as ``"numeric"``, ``"string"``, or ``"other"``."""
    if np.issubdtype(values.dtype, np.number) or values.dtype == bool:
        return "numeric"
    if np.issubdtype(values.dtype, np.str_):
        return "string"
    sample = [v for v in values[:64] if v is not None
              and not (isinstance(v, float) and np.isnan(v))]
    if not sample:
        return "other"
    if all(isinstance(v, str) for v in sample):
        return "string"
    if all(isinstance(v, (int, float, np.integer, np.floating, bool))
           for v in sample):
        return "numeric"
    return "other"


def _display(col: Any) -> str:
    return repr(col) if isinstance(col, tuple) else str(col)


def _suggest(attr: Any, candidates: Sequence[Any]) -> list[str]:
    """Nearest valid column names for an unknown *attr*."""
    by_text = {_display(c): c for c in candidates}
    close = difflib.get_close_matches(
        _display(attr), list(by_text), n=3, cutoff=0.5)
    # a plain name may also be the leaf of a hierarchical (tuple) column
    if not isinstance(attr, tuple):
        tails = [c for c in candidates
                 if isinstance(c, tuple) and c and str(c[-1]) == str(attr)]
        close.extend(_display(c) for c in tails if _display(c) not in close)
    return close


def _check_ref(ref: AttrRef, where: str, perf_cols: list, meta_cols: list,
               column_of, problems: list[str],
               suggestions: dict[str, list[str]]) -> None:
    attr = ref.attr
    if attr not in perf_cols:
        if attr in meta_cols:
            problems.append(
                f"{where}: {_display(attr)} is a metadata column "
                f"(per-profile), not a performance column (per-node); "
                f"filter with Thicket.filter_metadata instead")
            return
        if isinstance(attr, tuple) and attr:
            tops = sorted({_display(c[0]) for c in perf_cols
                           if isinstance(c, tuple) and c})
            if tops and not any(isinstance(c, tuple) and c[0] == attr[0]
                                for c in perf_cols):
                problems.append(
                    f"{where}: unknown hierarchical column "
                    f"{_display(attr)}: no top level {attr[0]!r} in this "
                    f"thicket (levels: {', '.join(tops)})")
                return
        close = _suggest(attr, list(perf_cols) + list(meta_cols))
        hint = f"; did you mean {close[0]}?" if close else ""
        problems.append(
            f"{where}: unknown column {_display(attr)}{hint}")
        if close:
            suggestions[_display(attr)] = close
        return

    if ref.kind == "regex":
        try:
            re.compile(str(ref.literal))
        except re.error as exc:
            problems.append(
                f"{where}: invalid regex {str(ref.literal)!r} for "
                f"{_display(attr)}: {exc}")
            return

    kind = _column_kind(column_of(attr))
    if kind == "numeric":
        if ref.kind == "regex":
            problems.append(
                f"{where}: regex match (=~) applied to numeric column "
                f"{_display(attr)}")
        elif isinstance(ref.literal, str):
            problems.append(
                f"{where}: string literal {ref.literal!r} compared "
                f"({ref.op}) with numeric column {_display(attr)}")
    elif kind == "string":
        if ref.kind == "order":
            problems.append(
                f"{where}: ordering comparison ({ref.op}) applied to "
                f"string column {_display(attr)}")
        elif ref.kind == "equality" and isinstance(
                ref.literal, (int, float)) and not isinstance(
                ref.literal, bool):
            problems.append(
                f"{where}: numeric literal {ref.literal!r} compared "
                f"({ref.op}) with string column {_display(attr)}")


def validate_query(query, thicket) -> QueryMatcher:
    """Statically validate *query* against *thicket*; returns the matcher.

    Raises :class:`~repro.errors.QueryValidationError` listing every
    violation when the query cannot possibly behave as written.  See
    the module docstring for the checks performed.
    """
    matcher = _coerce_matcher(query)
    problems: list[str] = []
    suggestions: dict[str, list[str]] = {}

    with obs_span("query.validate", steps=len(matcher.query_nodes)):
        if not matcher.query_nodes:
            problems.append("empty query: no query nodes to match")

        perf_cols = list(thicket.dataframe.columns)
        meta_cols = list(thicket.metadata.columns)

        for ident, ref in getattr(matcher, "unbound_refs", []):
            problems.append(
                f"WHERE comparison on {ident}.{_display(ref.attr)} "
                f"references identifier {ident!r} never bound in MATCH; "
                f"it constrains nothing")

        for idx, node in enumerate(matcher.query_nodes):
            where = f"step {idx} ({node.quantifier!r})"
            if node.refs:
                for ref in node.refs:
                    _check_ref(ref, where, perf_cols, meta_cols,
                               thicket.dataframe.column, problems,
                               suggestions)
            if (node.max_count == 0 and node.refs):
                problems.append(
                    f"{where}: zero-width quantifier can never consume a "
                    f"node, so its predicate is unsatisfiable")

        min_len = sum(n.min_count for n in matcher.query_nodes)
        depth = graph_depth(thicket.graph)
        if matcher.query_nodes and min_len > depth:
            problems.append(
                f"quantifiers require a downward path of at least "
                f"{min_len} node(s), but the call tree is only {depth} "
                f"deep: the query is structurally unsatisfiable")

    if problems:
        head = problems[0] if len(problems) == 1 else (
            f"{len(problems)} problems: " + "; ".join(problems))
        raise QueryValidationError(
            f"invalid query: {head}", problems=problems,
            suggestions=suggestions)
    return matcher
