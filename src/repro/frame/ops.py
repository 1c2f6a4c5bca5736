"""Vectorized column kernels shared by Series, DataFrame and groupby.

All aggregations are NaN-aware: missing values (``np.nan`` in float
columns, ``None`` in object columns) are skipped, matching the
behaviour Thicket inherits from pandas.  Kernels take a raw numpy array
and return a scalar; the callers deal with index bookkeeping.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..obs.core import get_telemetry

# Kernel-level call counters are too hot for spans; instead each call
# does a single `enabled` check against the telemetry singleton and,
# only when tracing, bumps a registry counter.
_telemetry = get_telemetry()

__all__ = [
    "is_missing",
    "coerce_column",
    "numeric_values",
    "AGGREGATIONS",
    "resolve_aggregation",
]


def is_missing(values: np.ndarray) -> np.ndarray:
    """Boolean mask of missing entries for float or object columns."""
    if values.dtype.kind == "f":
        return np.isnan(values)
    if values.dtype == object:
        out = np.empty(len(values), dtype=bool)
        for i, v in enumerate(values):
            out[i] = v is None or (isinstance(v, float) and np.isnan(v))
        return out
    return np.zeros(len(values), dtype=bool)


def coerce_column(values: Any, n: int | None = None) -> np.ndarray:
    """Coerce arbitrary input to a 1-D column array.

    Numeric input becomes ``float64``/``int64``/``bool``; anything else
    is stored as an object array.  Scalars broadcast to length *n*.
    """
    if np.isscalar(values) or values is None:
        if n is None:
            raise ValueError("need a length to broadcast a scalar column")
        if isinstance(values, (bool, np.bool_)):
            return np.full(n, bool(values), dtype=bool)
        if isinstance(values, (int, np.integer)):
            return np.full(n, int(values), dtype=np.int64)
        if isinstance(values, (float, np.floating)):
            return np.full(n, float(values), dtype=np.float64)
        arr = np.empty(n, dtype=object)
        arr[:] = values
        return arr
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if values.dtype.kind in "ifb" or values.dtype == object:
            arr = values.copy()
        else:  # e.g. unicode dtype -> object so missing values can be mixed in
            arr = values.astype(object)
    else:
        values = list(values)
        arr = _infer_array(values)
    if n is not None and len(arr) != n:
        raise ValueError(f"column length {len(arr)} does not match frame length {n}")
    return arr


def _value_kind(cls: type) -> str:
    if cls is type(None):
        return "none"
    if issubclass(cls, (bool, np.bool_)):
        return "bool"
    if issubclass(cls, (int, np.integer)):
        return "int"
    if issubclass(cls, (float, np.floating)):
        return "float"
    return "object"


def _infer_array(values: list) -> np.ndarray:
    kinds = {_value_kind(cls) for cls in set(map(type, values))}
    if kinds <= {"bool"}:
        return np.asarray(values, dtype=bool)
    if kinds <= {"int"}:
        return np.asarray(values, dtype=np.int64)
    if kinds <= {"int", "float", "bool", "none"} and kinds & {"float", "int"}:
        return np.asarray(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
    return np.fromiter(values, dtype=object, count=len(values))


def numeric_values(values: np.ndarray, drop_missing: bool = True
                   ) -> np.ndarray:
    """Extract a float array from a column, optionally dropping missing."""
    if _telemetry.enabled:
        _telemetry.metrics.increment("frame.ops.numeric_values")
    if values.dtype.kind in "ib":
        return values.astype(np.float64)
    if values.dtype.kind == "f":
        return values[~np.isnan(values)] if drop_missing else values
    out = []
    for v in values:
        if v is None:
            continue
        if isinstance(v, (int, float, np.integer, np.floating)):
            fv = float(v)
            if drop_missing and np.isnan(fv):
                continue
            out.append(fv)
        else:
            raise TypeError(f"non-numeric value {v!r} in numeric aggregation")
    return np.asarray(out, dtype=np.float64)


# ----------------------------------------------------------------------
# NaN-aware scalar aggregations
# ----------------------------------------------------------------------

def _agg_numeric(fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
    def agg(values: np.ndarray) -> float:
        data = numeric_values(values)
        if len(data) == 0:
            return float("nan")
        return float(fn(data))

    return agg


def _first(values: np.ndarray) -> Any:
    mask = is_missing(values)
    for i in range(len(values)):
        if not mask[i]:
            return values[i]
    return None


def _last(values: np.ndarray) -> Any:
    mask = is_missing(values)
    for i in range(len(values) - 1, -1, -1):
        if not mask[i]:
            return values[i]
    return None


def _count(values: np.ndarray) -> int:
    return int((~is_missing(values)).sum())


def _nunique(values: np.ndarray) -> int:
    mask = is_missing(values)
    return len({values[i] for i in range(len(values)) if not mask[i]})


AGGREGATIONS: dict[str, Callable[[np.ndarray], Any]] = {
    "mean": _agg_numeric(np.mean),
    "median": _agg_numeric(np.median),
    "sum": _agg_numeric(np.sum),
    "min": _agg_numeric(np.min),
    "max": _agg_numeric(np.max),
    "std": _agg_numeric(lambda a: np.std(a, ddof=1) if len(a) > 1 else 0.0),
    "var": _agg_numeric(lambda a: np.var(a, ddof=1) if len(a) > 1 else 0.0),
    "first": _first,
    "last": _last,
    "count": _count,
    "nunique": _nunique,
}


def resolve_aggregation(how: str | Callable) -> Callable[[np.ndarray], Any]:
    """Map an aggregation name or callable to a column kernel."""
    if _telemetry.enabled:
        _telemetry.metrics.increment("frame.ops.aggregations_resolved")
    if callable(how):
        return how
    try:
        return AGGREGATIONS[how]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {how!r}; expected one of {sorted(AGGREGATIONS)}"
        ) from None
