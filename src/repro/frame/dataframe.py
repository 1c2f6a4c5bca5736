"""A columnar, numpy-backed DataFrame with hierarchical row/column keys.

This is the pandas substitute underlying every Thicket component.  Data
is stored column-major — one numpy array per column — so statistics and
masking vectorize (per the HPC guides: push the hot loop into numpy).

Two pandas features Thicket relies on are reproduced faithfully:

* **MultiIndex rows** — performance data is keyed by
  ``(call-tree node, profile)`` tuples;
* **tuple column keys** — horizontal (multi-architecture) composition
  produces columns like ``("CPU", "time (exc)")`` and ``("GPU",
  "time (gpu)")``, selectable by top-level key.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .index import Index, MultiIndex, RangeIndex, ensure_index, sort_positions
from .ops import coerce_column, is_missing, resolve_aggregation
from .series import Series

__all__ = ["DataFrame"]


class _LocIndexer:
    """Label-based row access: ``df.loc[label]``, ``df.loc[mask]``."""

    __slots__ = ("_df",)

    def __init__(self, df: "DataFrame"):
        self._df = df

    def __getitem__(self, key):
        df = self._df
        if isinstance(key, Series):
            key = key.values
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return df._take_mask(key)
        if isinstance(key, list):
            positions = df.index.get_indexer(key)
            if (positions < 0).any():
                missing = [k for k, p in zip(key, positions) if p < 0]
                raise KeyError(f"labels not found: {missing!r}")
            return df.take(positions)
        # single label -> dict-like row view
        pos = df.index.get_loc(key)
        return {col: df._data[col][pos] for col in df.columns}


class _ILocIndexer:
    """Positional row access: ``df.iloc[3]``, ``df.iloc[2:5]``."""

    __slots__ = ("_df",)

    def __init__(self, df: "DataFrame"):
        self._df = df

    def __getitem__(self, key):
        df = self._df
        if isinstance(key, (int, np.integer)):
            return {col: df._data[col][key] for col in df.columns}
        if isinstance(key, slice):
            positions = np.arange(len(df))[key]
        else:
            positions = np.asarray(key, dtype=np.intp)
        return df.take(positions)


class DataFrame:
    """Two-dimensional labelled table.

    Parameters
    ----------
    data:
        Mapping of column key → column values, or list of record dicts.
    index:
        Row labels (defaults to ``RangeIndex``).
    columns:
        Explicit column order (defaults to insertion/appearance order).
    """

    __slots__ = ("_data", "_columns", "index")

    def __init__(self, data: Mapping | Sequence[Mapping] | None = None,
                 index: Index | Iterable | None = None,
                 columns: Sequence[Hashable] | None = None):
        self._data: dict[Hashable, np.ndarray] = {}
        self._columns: list[Hashable] = []

        if data is None:
            data = {}
        if isinstance(data, DataFrame):
            index = data.index if index is None else index
            columns = list(data.columns) if columns is None else columns
            data = {c: data._data[c] for c in data.columns}
        if isinstance(data, Mapping):
            items = list(data.items())
        else:  # sequence of record dicts
            records = list(data)
            keys: dict[Hashable, None] = {}
            for rec in records:
                for k in rec:
                    keys.setdefault(k, None)
            items = [
                (k, [rec.get(k) for rec in records]) for k in keys
            ]

        n: int | None = None
        for _, values in items:
            if hasattr(values, "__len__") and not np.isscalar(values):
                n = len(values)
                break
        if n is None:
            if index is not None:
                n = len(ensure_index(index, n=0)) if not isinstance(index, Index) else len(index)
            else:
                n = 0

        self.index = ensure_index(index, n=n)
        n = len(self.index)
        for key, values in items:
            if isinstance(values, Series):
                values = values.values
            self._data[key] = coerce_column(values, n)
            self._columns.append(key)

        if columns is not None:
            missing = [c for c in columns if c not in self._data]
            if missing:
                for c in missing:
                    self._data[c] = coerce_column(None, n)
            self._columns = list(columns)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[Hashable]:
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.index), len(self._columns))

    @property
    def empty(self) -> bool:
        return len(self.index) == 0

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, col: Hashable) -> bool:
        return col in self._data

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._columns)

    @property
    def loc(self) -> _LocIndexer:
        return _LocIndexer(self)

    @property
    def iloc(self) -> _ILocIndexer:
        return _ILocIndexer(self)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def __getitem__(self, key):
        if isinstance(key, Series):
            key = key.values
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return self._take_mask(key)
        if isinstance(key, list):
            return self.select(key)
        if key in self._data:
            return Series(self._data[key], index=self.index, name=key)
        # tuple key may be a hierarchical prefix: df[("CPU",)] or df["CPU"]
        sub = self._level_prefix_columns(key)
        if sub:
            return self.select(sub, strip_prefix=key)
        raise KeyError(f"column {key!r} not found")

    def _level_prefix_columns(self, key: Hashable) -> list[Hashable]:
        """Columns whose tuple key starts with *key* (or ``(key,)``)."""
        prefix = key if isinstance(key, tuple) else (key,)
        return [
            c for c in self._columns
            if isinstance(c, tuple) and len(c) > len(prefix) and c[: len(prefix)] == prefix
        ]

    def select(self, cols: Sequence[Hashable], strip_prefix: Hashable | None = None
               ) -> "DataFrame":
        """Project a subset of columns, optionally stripping a tuple prefix."""
        missing = [c for c in cols if c not in self._data]
        if missing:
            raise KeyError(f"columns not found: {missing!r}")
        out = DataFrame(index=self.index)
        for c in cols:
            new_key = c
            if strip_prefix is not None:
                prefix = strip_prefix if isinstance(strip_prefix, tuple) else (strip_prefix,)
                rest = c[len(prefix):]
                new_key = rest[0] if len(rest) == 1 else rest
            out._data[new_key] = self._data[c]
            out._columns.append(new_key)
        return out

    def _take_mask(self, mask: np.ndarray) -> "DataFrame":
        if len(mask) != len(self):
            raise ValueError("boolean mask length mismatch")
        out = DataFrame(index=self.index[mask])
        for c in self._columns:
            out._data[c] = self._data[c][mask]
            out._columns.append(c)
        return out

    def take(self, positions: Sequence[int]) -> "DataFrame":
        positions = np.asarray(positions, dtype=np.intp)
        out = DataFrame(index=self.index.take(positions))
        for c in self._columns:
            out._data[c] = self._data[c][positions]
            out._columns.append(c)
        return out

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(np.arange(min(n, len(self))))

    def column(self, key: Hashable) -> np.ndarray:
        """Raw numpy array for a column (no copy)."""
        return self._data[key]

    def get(self, key: Hashable, default=None):
        if key in self._data:
            return self[key]
        return default

    def xs(self, label: Any, level: int | Hashable = 0) -> "DataFrame":
        """Cross-section: rows whose MultiIndex *level* equals *label*."""
        if not isinstance(self.index, MultiIndex):
            raise TypeError("xs requires a MultiIndex")
        num = self.index.level_number(level)
        out = self.take(self.index.partition(num).positions(label))
        out.index = out.index.droplevel(num)  # type: ignore[union-attr]
        return out

    # ------------------------------------------------------------------
    # mutation (column-level; rows are immutable by design)
    # ------------------------------------------------------------------
    def __setitem__(self, key: Hashable, values) -> None:
        if isinstance(values, Series):
            values = values.values
        self._data[key] = coerce_column(values, len(self))
        if key not in self._columns:
            self._columns.append(key)

    def insert(self, pos: int, key: Hashable, values) -> None:
        self[key] = values
        self._columns.remove(key)
        self._columns.insert(pos, key)

    def drop(self, columns: Hashable | Sequence[Hashable] | None = None,
             index: Sequence[Any] | None = None) -> "DataFrame":
        out = self.copy()
        if columns is not None:
            if isinstance(columns, (str, tuple)):
                columns = [columns]
            for c in columns:
                if c not in out._data:
                    raise KeyError(f"column {c!r} not found")
                del out._data[c]
                out._columns.remove(c)
        if index is not None:
            out = out._take_mask(~out.index.isin(index))
        return out

    def rename(self, columns: Mapping[Hashable, Hashable]) -> "DataFrame":
        out = DataFrame(index=self.index)
        for c in self._columns:
            new = columns.get(c, c)
            out._data[new] = self._data[c]
            out._columns.append(new)
        return out

    def copy(self) -> "DataFrame":
        out = DataFrame(index=self.index)
        for c in self._columns:
            out._data[c] = self._data[c].copy()
            out._columns.append(c)
        return out

    # ------------------------------------------------------------------
    # index manipulation
    # ------------------------------------------------------------------
    def set_index(self, keys: Hashable | Sequence[Hashable], drop: bool = True
                  ) -> "DataFrame":
        if isinstance(keys, (str, tuple)) or not isinstance(keys, Sequence):
            keys = [keys]
        keys = list(keys)
        if len(keys) == 1:
            new_index: Index = Index(self._data[keys[0]], name=keys[0])
        else:
            new_index = MultiIndex.from_arrays(
                [self._data[k] for k in keys], names=keys)
        out = self.drop(columns=keys) if drop else self.copy()
        out.index = new_index
        return out

    def reset_index(self, names: Sequence[Hashable] | None = None) -> "DataFrame":
        """Move index level(s) into ordinary columns, re-labelling rows 0..n-1."""
        out = DataFrame(index=RangeIndex(len(self)))
        if isinstance(self.index, MultiIndex):
            level_names = names or [
                n if n is not None else f"level_{i}"
                for i, n in enumerate(self.index.names)
            ]
            for i, name in enumerate(level_names):
                out._data[name] = coerce_column(
                    list(self.index.get_level_values(i)), len(self))
                out._columns.append(name)
        else:
            name = (names[0] if names else None) or self.index.name or "index"
            out._data[name] = coerce_column(list(self.index.values), len(self))
            out._columns.append(name)
        for c in self._columns:
            out._data[c] = self._data[c]
            out._columns.append(c)
        return out

    def reindex(self, new_index: Index | Iterable) -> "DataFrame":
        """Align rows with *new_index*, filling missing rows with NaN/None."""
        new_index = ensure_index(new_index, n=0)
        positions = self.index.get_indexer(new_index)
        out = DataFrame(index=new_index)
        present = positions >= 0
        safe = np.where(present, positions, 0)
        for c in self._columns:
            col = self._data[c]
            if col.dtype.kind in "ib":
                col = col.astype(np.float64)
            # missing rows gather row 0 and are overwritten below; a
            # frame with no rows has no row 0, and every row is missing
            taken = col[safe] if len(col) else np.empty(len(safe), col.dtype)
            if col.dtype.kind == "f":
                taken = taken.astype(np.float64)
                taken[~present] = np.nan
            else:
                taken = taken.astype(object)
                taken[~present] = None
            out._data[c] = taken
            out._columns.append(c)
        return out

    def sort_index(self, ascending: bool = True) -> "DataFrame":
        order = sort_positions(list(self.index.values), reverse=not ascending)
        return self.take(order)

    def sort_values(self, by: Hashable | Sequence[Hashable],
                    ascending: bool = True) -> "DataFrame":
        if isinstance(by, (str, tuple)) and by in self._data:
            keys = [by]
        elif isinstance(by, Sequence) and not isinstance(by, (str, tuple)):
            keys = list(by)
        else:
            keys = [by]
        rows = list(zip(*(self._data[k] for k in keys)))
        order = sort_positions(rows, reverse=not ascending)
        return self.take(order)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def apply(self, fn: Callable, axis: int = 0) -> Series:
        """Apply *fn* per column (axis=0) or per row-dict (axis=1)."""
        if axis == 0:
            return Series(
                [fn(Series(self._data[c], index=self.index, name=c))
                 for c in self._columns],
                index=Index(self._columns), name=None,
            )
        rows = [
            {c: self._data[c][i] for c in self._columns} for i in range(len(self))
        ]
        return Series([fn(r) for r in rows], index=self.index)

    def agg(self, how: str | Callable | Mapping[Hashable, str | Callable]) -> Series:
        if isinstance(how, Mapping):
            keys = list(how.keys())
            return Series(
                [resolve_aggregation(how[k])(self._data[k]) for k in keys],
                index=Index(keys),
            )
        fn = resolve_aggregation(how)
        return Series(
            [fn(self._data[c]) for c in self._columns], index=Index(self._columns)
        )

    def mean(self) -> Series:
        return self.agg("mean")

    def sum(self) -> Series:
        return self.agg("sum")

    def groupby(self, by: Hashable | Sequence[Hashable] | None = None,
                level: int | Hashable | None = None):
        from .groupby import GroupBy

        return GroupBy(self, by=by, level=level)

    def describe(self, columns: Sequence[Hashable] | None = None
                 ) -> "DataFrame":
        """Summary statistics per numeric column (count/mean/std/min/
        quartiles/max), one row per statistic: each column's
        :meth:`Series.describe`, NaN where an empty column has none."""
        if columns is None:
            columns = [c for c in self._columns
                       if self._data[c].dtype.kind in "if"]
        stats_rows = ["count", "mean", "std", "min", "25%", "50%", "75%",
                      "max"]
        out = DataFrame(index=Index(stats_rows, name="statistic"))
        for c in columns:
            described = Series(self._data[c]).describe()
            out[c] = [described.get(s, np.nan) for s in stats_rows]
        return out

    def unstack(self, level: int | Hashable = -1) -> "DataFrame":
        """Pivot one MultiIndex level into the columns.

        ``(node, profile) -> metric`` rows become ``node`` rows with
        ``(metric, profile)`` columns — the layout used to eyeball an
        ensemble side by side.
        """
        if not isinstance(self.index, MultiIndex):
            raise TypeError("unstack requires a MultiIndex")
        num = self.index.level_number(
            level if level != -1 else self.index.nlevels - 1)
        moved = self.index.partition(num)
        remaining = self.index.droplevel(num)
        new_index = remaining.unique()  # first-seen order
        row = new_index.get_indexer(remaining)
        out = DataFrame(index=new_index)
        for c in self._columns:
            for code, m in enumerate(moved.uniques):
                values = np.full(len(new_index), None, dtype=object)
                rows = moved.segment(code)
                values[row[rows]] = self._data[c][rows]
                key = (c, m) if not isinstance(c, tuple) else c + (m,)
                out[key] = list(values)
        return out

    def dropna(self, subset: Sequence[Hashable] | None = None) -> "DataFrame":
        cols = subset if subset is not None else self._columns
        mask = np.ones(len(self), dtype=bool)
        for c in cols:
            mask &= ~is_missing(self._data[c])
        return self._take_mask(mask)

    def fillna(self, value: Any) -> "DataFrame":
        out = self.copy()
        for c in out._columns:
            m = is_missing(out._data[c])
            if m.any():
                out._data[c][m] = value
        return out

    def to_numpy(self, columns: Sequence[Hashable] | None = None,
                 dtype=np.float64) -> np.ndarray:
        cols = list(columns) if columns is not None else self._columns
        return np.column_stack([self._data[c].astype(dtype) for c in cols])

    # ------------------------------------------------------------------
    # iteration & export
    # ------------------------------------------------------------------
    def iterrows(self) -> Iterator[tuple[Any, dict]]:
        for i, lbl in enumerate(self.index.values):
            yield lbl, {c: self._data[c][i] for c in self._columns}

    def itertuples(self) -> Iterator[tuple]:
        for i, lbl in enumerate(self.index.values):
            yield (lbl,) + tuple(self._data[c][i] for c in self._columns)

    def to_dict(self, orient: str = "dict") -> Any:
        if orient == "dict":
            return {
                c: dict(zip(self.index.values, self._data[c])) for c in self._columns
            }
        if orient == "list":
            return {c: list(self._data[c]) for c in self._columns}
        if orient == "records":
            return [
                {c: self._data[c][i] for c in self._columns} for i in range(len(self))
            ]
        raise ValueError(f"unknown orient {orient!r}")

    def to_string(self, max_rows: int = 40, float_fmt: str = "{:.6g}") -> str:
        from .display import format_frame

        return format_frame(self, max_rows=max_rows, float_fmt=float_fmt)

    def __repr__(self) -> str:
        return self.to_string()

    # ------------------------------------------------------------------
    # structural helpers used by Thicket composition
    # ------------------------------------------------------------------
    def column_nlevels(self) -> int:
        widths = {len(c) if isinstance(c, tuple) else 1 for c in self._columns}
        return max(widths) if widths else 1

    def top_level_columns(self) -> list[Hashable]:
        seen: dict[Hashable, None] = {}
        for c in self._columns:
            seen.setdefault(c[0] if isinstance(c, tuple) else c, None)
        return list(seen.keys())

    def add_column_level(self, label: Hashable) -> "DataFrame":
        """Prefix every column key with *label*, producing tuple keys."""
        out = DataFrame(index=self.index)
        for c in self._columns:
            key = (label,) + (c if isinstance(c, tuple) else (c,))
            out._data[key] = self._data[c]
            out._columns.append(key)
        return out

    def equals(self, other: "DataFrame") -> bool:
        if not isinstance(other, DataFrame):
            return False
        if self._columns != other._columns or not self.index.equals(other.index):
            return False
        for c in self._columns:
            a, b = self._data[c], other._data[c]
            if a.dtype.kind == "f" and b.dtype.kind == "f":
                if not np.allclose(a, b, equal_nan=True):
                    return False
            elif not all(x == y or (x is None and y is None) for x, y in zip(a, b)):
                return False
        return True
