"""Relational joins between DataFrames on index labels or key columns.

The entity-relationship structure in the paper (Fig. 3) links the
metadata table (one row per profile) to the performance-data table
(many rows per profile) through the profile index — a classic
one-to-many join implemented here.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ..obs import span as obs_span
from .dataframe import DataFrame
from .index import Index

__all__ = ["join_on_index", "merge"]


def join_on_index(left: DataFrame, right: DataFrame, how: str = "inner",
                  lsuffix: str = "", rsuffix: str = "_right") -> DataFrame:
    """Join two frames on their (single-level or multi) row index.

    Each side's row labels must be unique: a repeated label raises
    ``ValueError`` rather than losing rows.
    """
    with obs_span("frame.join_on_index", how=how, left=len(left),
                  right=len(right)):
        return _join_on_index(left, right, how, lsuffix, rsuffix)


def _join_on_index(left: DataFrame, right: DataFrame, how: str,
                   lsuffix: str, rsuffix: str) -> DataFrame:
    for side, frame in (("left", left), ("right", right)):
        repeats = np.flatnonzero(frame.index.duplicated())
        if len(repeats):
            raise ValueError(
                f"join_on_index needs unique row labels; the {side} frame "
                f"repeats {frame.index[int(repeats[0])]!r}")
    if how == "inner":
        labels = left.index.intersection(right.index)
    elif how == "left":
        labels = left.index.unique()
    elif how == "outer":
        labels = left.index.union(right.index)
    else:
        raise ValueError(f"how must be inner/left/outer, got {how!r}")

    l_aligned = left.reindex(labels)
    r_aligned = right.reindex(labels)
    out = DataFrame(index=l_aligned.index)
    for c in l_aligned.columns:
        key = c if c not in r_aligned.columns else _suffixed(c, lsuffix)
        out[key] = l_aligned.column(c)
    for c in r_aligned.columns:
        key = c if c not in l_aligned.columns else _suffixed(c, rsuffix)
        out[key] = r_aligned.column(c)
    return out


def _suffixed(col: Hashable, suffix: str) -> Hashable:
    if not suffix:
        return col
    if isinstance(col, tuple):
        return col[:-1] + (f"{col[-1]}{suffix}",)
    return f"{col}{suffix}"


def merge(left: DataFrame, right: DataFrame, on: Hashable | Sequence[Hashable],
          how: str = "inner", suffixes: tuple[str, str] = ("_x", "_y")) -> DataFrame:
    """SQL-style merge on shared key column(s).

    Implements a hash join: the right side is bucketed by key once,
    then left rows probe the buckets.  ``how`` is ``"inner"`` or
    ``"left"``; anything else raises ``ValueError``.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner/left, got {how!r}")
    with obs_span("frame.merge", how=how, left=len(left),
                  right=len(right)):
        return _merge(left, right, on, how, suffixes)


def _merge(left: DataFrame, right: DataFrame, on, how: str,
           suffixes: tuple[str, str]) -> DataFrame:
    if isinstance(on, (str, tuple)):
        on = [on]
    on = list(on)
    for k in on:
        if k not in left or k not in right:
            raise KeyError(f"merge key {k!r} missing from one side")

    def keys_of(df: DataFrame) -> list:
        if len(on) == 1:
            return list(df.column(on[0]))
        return list(zip(*(df.column(k) for k in on)))

    right_buckets: dict = {}
    for i, key in enumerate(keys_of(right)):
        right_buckets.setdefault(key, []).append(i)

    left_keys = keys_of(left)
    l_pos: list[int] = []
    r_pos: list[int] = []
    for i, key in enumerate(left_keys):
        matches = right_buckets.get(key)
        if matches:
            for j in matches:
                l_pos.append(i)
                r_pos.append(j)
        elif how == "left":
            l_pos.append(i)
            r_pos.append(-1)

    l_take = left.take(l_pos) if l_pos else left.take([])
    out = DataFrame(index=Index(range(len(l_pos))))
    shared = set(left.columns) & set(right.columns) - set(on)
    for c in l_take.columns:
        key = _suffixed(c, suffixes[0]) if c in shared else c
        out[key] = l_take.column(c)
    r_pos_arr = np.asarray(r_pos, dtype=np.intp)
    present = r_pos_arr >= 0
    safe = np.where(present, r_pos_arr, 0)
    for c in right.columns:
        if c in on:
            continue
        col = right.column(c)[safe] if len(safe) else right.column(c)[:0]
        if not present.all():
            if col.dtype.kind in "ibf":
                col = col.astype(np.float64)
                col[~present] = np.nan
            else:
                col = col.astype(object)
                col[~present] = None
        key = _suffixed(c, suffixes[1]) if c in shared else c
        out[key] = col
    return out
