"""A labelled 1-D column: the unit of computation in the frame substrate.

A :class:`Series` pairs a numpy value array with an :class:`Index`.
Comparisons produce boolean Series used for masking DataFrames (the
``filter_metadata`` code path in Thicket); arithmetic aligns
positionally, which is sufficient because every operation inside this
library keeps row order stable.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from .index import Index, ensure_index
from .ops import AGGREGATIONS, coerce_column, is_missing, numeric_values

__all__ = ["Series"]


class Series:
    """One named column of values with row labels."""

    __slots__ = ("values", "index", "name")

    def __init__(self, values: Iterable[Any], index: Index | Iterable | None = None,
                 name: Hashable | None = None):
        if isinstance(values, Series):
            if index is None:
                index = values.index
            if name is None:
                name = values.name
            values = values.values
        n = len(values) if hasattr(values, "__len__") else None
        if n is None:
            values = list(values)
            n = len(values)
        self.values = coerce_column(values, n)
        self.index = ensure_index(index, n=n)
        if len(self.index) != len(self.values):
            raise ValueError(
                f"index length {len(self.index)} != values length {len(self.values)}"
            )
        self.name = name

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)) and not isinstance(
            self.index[0] if len(self.index) else None, (int, np.integer)
        ):
            # positional access when labels are not ints
            return self.values[key]
        if isinstance(key, Series):
            key = key.values
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return Series(self.values[key], index=self.index[key], name=self.name)
        if isinstance(key, slice):
            return Series(self.values[key], index=self.index[key], name=self.name)
        # label access
        return self.values[self.index.get_loc(key)]

    def iloc(self, pos: int) -> Any:
        return self.values[pos]

    def loc(self, label: Any) -> Any:
        return self.values[self.index.get_loc(label)]

    def __repr__(self) -> str:
        rows = [f"{lbl!r}\t{val!r}" for lbl, val in zip(self.index, self.values)]
        head = "\n".join(rows[:10])
        if len(rows) > 10:
            head += f"\n... ({len(rows)} rows)"
        return f"{head}\nName: {self.name!r}, dtype: {self.values.dtype}"

    # ------------------------------------------------------------------
    # elementwise operations
    # ------------------------------------------------------------------
    def _binary(self, other: Any, op: Callable[[Any, Any], Any]) -> "Series":
        if isinstance(other, Series):
            if len(other) != len(self):
                raise ValueError("cannot align Series of different lengths")
            other = other.values
        try:
            result = op(self.values, other)
        except TypeError:
            result = np.array(
                [op(v, o) for v, o in zip(self.values, np.broadcast_to(other, len(self)))],
                dtype=object,
            )
        return Series(result, index=self.index, name=self.name)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return Series(-self.values, index=self.index, name=self.name)

    def _compare(self, other: Any, op: Callable[[Any, Any], bool]) -> "Series":
        if isinstance(other, Series):
            other = other.values
        if isinstance(other, np.ndarray) or self.values.dtype != object:
            try:
                result = op(self.values, other)
                if isinstance(result, np.ndarray) and result.dtype == bool:
                    return Series(result, index=self.index, name=self.name)
            except TypeError:
                pass
        result = np.fromiter(
            (bool(op(v, other)) for v in self.values), dtype=bool, count=len(self)
        )
        return Series(result, index=self.index, name=self.name)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    def __hash__(self):
        raise TypeError("Series objects are not hashable")

    def __and__(self, other):
        return self._binary(other, lambda a, b: a & b)

    def __or__(self, other):
        return self._binary(other, lambda a, b: a | b)

    def __invert__(self):
        return Series(~self.values, index=self.index, name=self.name)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def apply(self, fn: Callable[[Any], Any]) -> "Series":
        return Series([fn(v) for v in self.values], index=self.index, name=self.name)

    def map(self, mapping) -> "Series":
        if callable(mapping):
            return self.apply(mapping)
        return self.apply(lambda v: mapping.get(v))

    def astype(self, dtype) -> "Series":
        return Series(self.values.astype(dtype), index=self.index, name=self.name)

    def isin(self, values: Iterable[Any]) -> "Series":
        wanted = set(values)
        return Series(
            np.fromiter((v in wanted for v in self.values), dtype=bool, count=len(self)),
            index=self.index, name=self.name,
        )

    def isna(self) -> "Series":
        return Series(is_missing(self.values), index=self.index, name=self.name)

    def notna(self) -> "Series":
        return Series(~is_missing(self.values), index=self.index, name=self.name)

    def fillna(self, value: Any) -> "Series":
        mask = is_missing(self.values)
        out = self.values.copy()
        out[mask] = value
        return Series(out, index=self.index, name=self.name)

    def unique(self) -> list:
        seen: dict[Any, None] = {}
        for v in self.values:
            seen.setdefault(v, None)
        return list(seen.keys())

    def nunique(self) -> int:
        return len(self.unique())

    def tolist(self) -> list:
        return list(self.values)

    def to_numpy(self) -> np.ndarray:
        return self.values.copy()

    def copy(self) -> "Series":
        return Series(self.values.copy(), index=self.index, name=self.name)

    def rename(self, name: Hashable) -> "Series":
        return Series(self.values, index=self.index, name=name)

    def sort_values(self, ascending: bool = True) -> "Series":
        from .index import sort_positions

        order = sort_positions(list(self.values), reverse=not ascending)
        return Series(self.values[np.asarray(order)], index=self.index.take(order),
                      name=self.name)

    def head(self, n: int = 5) -> "Series":
        return self[slice(0, n)]

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _agg(self, how: str) -> Any:
        return AGGREGATIONS[how](self.values)

    def mean(self) -> float:
        return self._agg("mean")

    def median(self) -> float:
        return self._agg("median")

    def sum(self) -> float:
        return self._agg("sum")

    def min(self) -> float:
        return self._agg("min")

    def max(self) -> float:
        return self._agg("max")

    def std(self, ddof: int = 1) -> float:
        data = numeric_values(self.values)
        if len(data) <= ddof:
            return 0.0
        return float(np.std(data, ddof=ddof))

    def var(self, ddof: int = 1) -> float:
        data = numeric_values(self.values)
        if len(data) <= ddof:
            return 0.0
        return float(np.var(data, ddof=ddof))

    def count(self) -> int:
        return self._agg("count")

    def all(self) -> bool:
        return bool(np.all([bool(v) for v in self.values]))

    def any(self) -> bool:
        return bool(np.any([bool(v) for v in self.values]))

    def quantile(self, q: float) -> float:
        data = numeric_values(self.values)
        if len(data) == 0:
            return float("nan")
        return float(np.percentile(data, q * 100.0))

    def idxmax(self) -> Any:
        data = numeric_values(self.values, drop_missing=False)
        return self.index[int(np.nanargmax(data))]

    def idxmin(self) -> Any:
        data = numeric_values(self.values, drop_missing=False)
        return self.index[int(np.nanargmin(data))]

    def value_counts(self) -> "Series":
        """Occurrences per distinct value, most frequent first."""
        counts: dict[Any, int] = {}
        for v in self.values:
            counts[v] = counts.get(v, 0) + 1
        ordered = sorted(counts.items(), key=lambda kv: -kv[1])
        return Series([c for _, c in ordered],
                      index=Index([k for k, _ in ordered]),
                      name=self.name)

    def describe(self) -> dict[str, float]:
        """count/mean/std/min/quartiles/max of the numeric values."""
        data = numeric_values(self.values)
        if len(data) == 0:
            return {"count": 0.0}
        q1, med, q3 = np.percentile(data, [25, 50, 75])
        return {
            "count": float(len(data)),
            "mean": float(np.mean(data)),
            "std": float(np.std(data, ddof=1)) if len(data) > 1 else 0.0,
            "min": float(np.min(data)),
            "25%": float(q1), "50%": float(med), "75%": float(q3),
            "max": float(np.max(data)),
        }
