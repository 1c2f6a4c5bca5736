"""Query-node primitives for the Call Path Query Language.

A query is a sequence of *query nodes*; each query node pairs a
**quantifier** (how many consecutive call-tree nodes it may match) with
a **predicate** (what must hold for a call-tree node to match).  This
mirrors Hatchet's query language as used by Thicket (§4.1.3, Fig. 8).

Quantifiers:

=========  =========================
``"."``    exactly one node
``"*"``    zero or more nodes
``"+"``    one or more nodes
``int k``  exactly *k* nodes
=========  =========================
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["QueryNode", "parse_quantifier", "attr_predicate", "attr_refs",
           "AttrRef"]

Predicate = Callable[[Any], bool]

_ORDER_OPS = {"<", "<=", ">", ">="}


class AttrRef:
    """A statically known attribute reference inside a predicate.

    Query predicates are closures at match time, which makes them
    opaque to static validation.  The string and object dialects
    therefore also record, per query node, which column each
    comparison touches, the operator, and the literal — enough for
    :func:`repro.query.validate_query` to cross-check a query against
    a thicket's tables before any matching runs.

    ``op`` is normalised to the string-dialect spelling
    (``= != < <= > >= =~``); ``kind`` classifies it as ``"regex"``,
    ``"order"``, or ``"equality"``.
    """

    __slots__ = ("attr", "op", "literal")

    def __init__(self, attr: Any, op: str, literal: Any):
        self.attr = attr
        self.op = op
        self.literal = literal

    @property
    def kind(self) -> str:
        """Predicate class: ``"regex"``, ``"order"``, or ``"equality"``."""
        if self.op == "=~":
            return "regex"
        if self.op in _ORDER_OPS:
            return "order"
        return "equality"

    def __repr__(self) -> str:
        return f"AttrRef({self.attr!r} {self.op} {self.literal!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AttrRef)
                and (self.attr, self.op, self.literal)
                == (other.attr, other.op, other.literal))


def _always_true(_row: Any) -> bool:
    return True


def parse_quantifier(quantifier: str | int) -> tuple[int, int | None]:
    """Convert a quantifier spec to ``(min_count, max_count)``.

    ``max_count`` is ``None`` for unbounded quantifiers.
    """
    if isinstance(quantifier, bool):
        raise TypeError("quantifier may not be a bool")
    if isinstance(quantifier, int):
        if quantifier < 0:
            raise ValueError(f"negative quantifier {quantifier}")
        return (quantifier, quantifier)
    if quantifier == ".":
        return (1, 1)
    if quantifier == "*":
        return (0, None)
    if quantifier == "+":
        return (1, None)
    raise ValueError(f"unknown quantifier {quantifier!r}")


class QueryNode:
    """One step of a query: quantifier bounds plus a predicate.

    ``refs`` carries the :class:`AttrRef` records of the predicate when
    it came from a dialect with statically known structure (string /
    object dialect); it is ``None`` for opaque fluent-API callables,
    in which case validation can only check quantifier structure.

    ``columns`` is the predicate's column form, when it has one (the
    string dialect's, or no predicate at all): called with a
    ``compare(ref, check)`` that answers one comparison for every node
    of a thicket, it returns one boolean per node (see
    :func:`repro.core.querying.query_thicket`).  It is ``None`` for a
    predicate that can only be called on a row view.
    """

    __slots__ = ("min_count", "max_count", "predicate", "quantifier", "refs",
                 "columns")

    def __init__(self, quantifier: str | int = ".",
                 predicate: Predicate | None = None,
                 refs: "list[AttrRef] | None" = None,
                 columns: "Callable[[Any], Any] | None" = None):
        self.quantifier = quantifier
        self.min_count, self.max_count = parse_quantifier(quantifier)
        self.predicate = predicate or _always_true
        self.refs = refs
        self.columns = _always_true if predicate is None else columns

    def matches(self, row: Any) -> bool:
        """Whether one node's attribute row satisfies the predicate."""
        return bool(self.predicate(row))

    def __repr__(self) -> str:
        return f"QueryNode({self.quantifier!r})"


def attr_predicate(attrs: dict[str, Any]) -> Predicate:
    """Build a predicate from an attribute spec dict (the object dialect).

    Spec values may be:

    * an exact value (``{"name": "main"}``);
    * a regex string prefixed with ``"~"`` (full-match);
    * a comparison string for numeric columns (``{"time": "> 0.5"}``),
      false for a value (or bound) that is not a number, as in the
      string dialect.

    The predicate receives the node's *row view* — a mapping from column
    name to either a scalar (single profile) or a Series of per-profile
    values (ensembles); for Series, **all** profiles must satisfy the
    spec (Thicket's `.all()` semantics).
    """
    import re

    def check_scalar(value: Any, spec: Any) -> bool:
        if isinstance(spec, str) and spec.startswith("~"):
            return value is not None and re.fullmatch(spec[1:], str(value)) is not None
        if isinstance(spec, str) and spec[:2].strip() in {"<", ">", "<=", ">=", "==", "!="}:
            op, _, rhs = spec.partition(" ")
            try:
                v, rhs_v = float(value), float(rhs)
            except (TypeError, ValueError):
                return False
            return {
                "<": v < rhs_v, "<=": v <= rhs_v, ">": v > rhs_v,
                ">=": v >= rhs_v, "==": v == rhs_v, "!=": v != rhs_v,
            }[op]
        return value == spec

    def predicate(row: Any) -> bool:
        for key, spec in attrs.items():
            try:
                value = row[key]
            except (KeyError, TypeError):
                return False
            if hasattr(value, "apply") and hasattr(value, "all"):
                if not value.apply(lambda v: check_scalar(v, spec)).all():
                    return False
            elif not check_scalar(value, spec):
                return False
        return True

    return predicate


def attr_refs(attrs: dict[str, Any]) -> list[AttrRef]:
    """The :class:`AttrRef` records of an object-dialect attribute spec.

    Mirrors the spec interpretation of :func:`attr_predicate`: a
    ``"~regex"`` string becomes a ``=~`` ref, a ``"< 0.5"`` comparison
    string becomes an order/equality ref on the parsed number, and any
    other value an exact-equality ref.
    """
    refs = []
    for key, spec in attrs.items():
        if isinstance(spec, str) and spec.startswith("~"):
            refs.append(AttrRef(key, "=~", spec[1:]))
        elif (isinstance(spec, str)
              and spec[:2].strip() in {"<", ">", "<=", ">=", "==", "!="}):
            op, _, rhs = spec.partition(" ")
            try:
                rhs_v: Any = float(rhs)
            except ValueError:
                rhs_v = rhs
            refs.append(AttrRef(key, {"==": "=", "!=": "!="}.get(op, op),
                                rhs_v))
        else:
            refs.append(AttrRef(key, "=", spec))
    return refs
