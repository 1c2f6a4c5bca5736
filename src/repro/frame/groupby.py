"""Split-apply-combine over DataFrames.

Supports grouping by one or more columns *or* by a level of a
MultiIndex.  The grouper works on one :class:`LevelPartition` of the
rows — for a level, the one cached on the index — and the named
numeric aggregations reduce every group of a column at once with the
segment kernels of :mod:`repro.frame.segment`.
Thicket's aggregated-statistics table is a groupby over the ``node``
level of the performance data.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from ..obs import span as obs_span
from .dataframe import DataFrame
from .index import Index, LevelPartition, MultiIndex, factorize, sort_positions
from .ops import resolve_aggregation
from .segment import SEGMENT_KERNELS, segment_values

__all__ = ["GroupBy", "suffix_key"]


class GroupBy:
    """Lazy grouping of a DataFrame's rows.

    Parameters
    ----------
    df:
        Source frame.
    by:
        Column key or list of column keys to group on.
    level:
        Alternatively, a MultiIndex level (number or name).
    """

    def __init__(self, df: DataFrame, by: Hashable | Sequence[Hashable] | None = None,
                 level: int | Hashable | None = None):
        if (by is None) == (level is None):
            raise ValueError("specify exactly one of `by` or `level`")
        self._df = df
        self._level = level
        if by is not None and (
            isinstance(by, (str, tuple)) or not isinstance(by, Sequence)
        ):
            by = [by]
        self._by: list[Hashable] | None = list(by) if by is not None else None
        self._part: LevelPartition | None = None
        self._order: list[int] | None = None
        self._groups: dict[Any, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def _rows(self) -> LevelPartition:
        """Rows by group key: the index's cached level partition for
        ``level=``, a fresh factorization of the key column(s) for
        ``by=``."""
        if self._part is None:
            df = self._df
            if self._level is not None:
                self._part = df.index.partition(self._level)
            else:
                assert self._by is not None
                if len(self._by) == 1:
                    keys = df.column(self._by[0])
                else:
                    keys = zip(*(df.column(k) for k in self._by))
                self._part = factorize(keys)
        return self._part

    @property
    def _key_order(self) -> list[int]:
        """Codes of the partition in group-key sort order."""
        if self._order is None:
            self._order = sort_positions(self._rows.uniques)
        return self._order

    @property
    def groups(self) -> dict[Any, np.ndarray]:
        """Mapping group key → row positions (insertion-ordered by key sort)."""
        if self._groups is None:
            with obs_span("frame.groupby.partition",
                          rows=len(self._df)) as s:
                part = self._rows
                self._groups = {part.uniques[c]: part.segment(c)
                                for c in self._key_order}
                s.set("groups", len(self._groups))
        return self._groups

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[tuple[Any, DataFrame]]:
        for key, positions in self.groups.items():
            yield key, self._df.take(positions)

    def get_group(self, key: Any) -> DataFrame:
        return self._df.take(self.groups[key])

    def size(self) -> dict[Any, int]:
        return {k: len(p) for k, p in self.groups.items()}

    # ------------------------------------------------------------------
    def agg(self, how: str | Callable | Mapping[Hashable, str | Callable] |
            Mapping[Hashable, Sequence[str | Callable]]) -> DataFrame:
        """Aggregate each group.

        *how* may be a single function/name (applied to every non-key
        column), or a mapping ``column -> function`` /
        ``column -> [functions]``.  Multi-function specs produce columns
        named ``f"{column}_{fn}"`` following Thicket's stats naming.
        """
        df = self._df
        if isinstance(how, Mapping):
            spec: list[tuple[Hashable, Hashable, str | Callable]] = []
            for col, fns in how.items():
                if isinstance(fns, (str,)) or callable(fns):
                    fns = [fns]
                multi = len(fns) > 1
                for fn in fns:
                    name = fn if isinstance(fn, str) else getattr(fn, "__name__", "agg")
                    out_key = suffix_key(col, name) if multi else col
                    spec.append((out_key, col, fn))
        else:
            key_cols = set(self._by or [])
            spec = [(c, c, how) for c in df.columns if c not in key_cols]

        part = self._rows
        order = self._key_order
        keys = [part.uniques[c] for c in order]
        with obs_span("frame.groupby.agg", groups=len(keys),
                      columns=len(spec)):
            out = DataFrame(index=self._result_index(keys))
            for out_key, col, fn in spec:
                out[out_key] = _aggregate(df.column(col), part, fn, order)
        return out

    def _result_index(self, keys: list[Any]) -> Index:
        if self._by is not None and len(self._by) > 1:
            return MultiIndex(keys, names=self._by)
        name: Hashable | None
        if self._by is not None:
            name = self._by[0]
        elif isinstance(self._df.index, MultiIndex):
            name = self._df.index.names[self._df.index.level_number(self._level)]
        else:
            name = self._df.index.name
        return Index(keys, name=name)

    def mean(self) -> DataFrame:
        return self.agg("mean")

    def sum(self) -> DataFrame:
        return self.agg("sum")

    def std(self) -> DataFrame:
        return self.agg("std")

    def var(self) -> DataFrame:
        return self.agg("var")

    def min(self) -> DataFrame:
        return self.agg("min")

    def max(self) -> DataFrame:
        return self.agg("max")

    def median(self) -> DataFrame:
        return self.agg("median")

    def count(self) -> DataFrame:
        return self.agg("count")

    def apply(self, fn: Callable[[DataFrame], Any]) -> dict[Any, Any]:
        """Apply *fn* to each group's sub-frame; returns key → result."""
        return {key: fn(sub) for key, sub in self}


def _aggregate(values: np.ndarray, part: LevelPartition,
               how: str | Callable, order: list[int]) -> np.ndarray | list:
    """The aggregate of each partition code in *order*: a segment
    kernel for the named numeric reductions, else one call per group."""
    kernel = SEGMENT_KERNELS.get(how) if isinstance(how, str) else None
    if kernel is not None:
        return kernel(segment_values(values, part))[order]
    fn = resolve_aggregation(how)
    return [fn(values[part.segment(c)]) for c in order]


def suffix_key(col: Hashable, suffix: str) -> Hashable:
    """``time (exc)`` + ``std`` → ``time (exc)_std`` (tuple-aware)."""
    if isinstance(col, tuple):
        return col[:-1] + (f"{col[-1]}_{suffix}",)
    return f"{col}_{suffix}"
