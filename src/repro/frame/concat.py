"""Row-wise and column-wise concatenation of DataFrames.

``concat_rows`` stacks frames vertically taking the union of columns
(missing cells become NaN/None) — used when joining profiles into one
performance-data table.  ``concat_columns`` aligns frames on their row
index and optionally prefixes each frame's columns with a key, creating
the hierarchical column index of §3.2.2 (multi-architecture
composition).
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from ..obs import span as obs_span
from .dataframe import DataFrame
from .index import Index, MultiIndex

__all__ = ["concat_rows", "concat_columns"]


def concat_rows(frames: Sequence[DataFrame]) -> DataFrame:
    """Stack *frames* vertically; column set is the ordered union."""
    frames = [f for f in frames if f is not None]
    if not frames:
        return DataFrame()
    with obs_span("frame.concat_rows", frames=len(frames),
                  rows=sum(len(f) for f in frames)):
        return _concat_rows(frames)


def _concat_rows(frames: Sequence[DataFrame]) -> DataFrame:
    columns: dict[Hashable, None] = {}
    for f in frames:
        for c in f.columns:
            columns.setdefault(c, None)
    columns = list(columns)

    if all(isinstance(f.index, MultiIndex) for f in frames):
        new_index: Index = MultiIndex.concat([f.index for f in frames])
    else:
        new_index = Index([v for f in frames for v in f.index.values],
                          name=frames[0].index.name)

    out = DataFrame(index=new_index)
    n_total = len(new_index)
    for c in columns:
        pieces: list[np.ndarray] = []
        for f in frames:
            if c in f:
                pieces.append(f.column(c))
            else:
                pieces.append(_missing_block(len(f)))
        out[c] = _stack(pieces, n_total)
    return out


def _missing_block(n: int) -> np.ndarray:
    block = np.full(n, np.nan, dtype=np.float64)
    return block


def _stack(pieces: list[np.ndarray], n_total: int) -> np.ndarray:
    kinds = {p.dtype.kind for p in pieces}
    if kinds <= {"f", "i", "b"}:
        return np.concatenate([p.astype(np.float64) for p in pieces])
    out = np.empty(n_total, dtype=object)
    pos = 0
    for p in pieces:
        for v in p:
            out[pos] = None if _is_nan(v) else v
            pos += 1
    return out


def _is_nan(v) -> bool:
    return isinstance(v, float) and np.isnan(v)


def concat_columns(frames: Sequence[DataFrame],
                   keys: Sequence[Hashable] | None = None,
                   join: str = "inner") -> DataFrame:
    """Align *frames* on their row index and place columns side by side.

    Parameters
    ----------
    frames:
        Frames to compose.
    keys:
        Optional per-frame labels; when given each frame's columns are
        prefixed, producing tuple column keys (a hierarchical column
        index).
    join:
        ``"inner"`` keeps only rows present in every frame (the paper's
        intersection semantics); ``"outer"`` keeps the union and fills
        missing cells.
    """
    frames = list(frames)
    if not frames:
        return DataFrame()
    if keys is not None and len(keys) != len(frames):
        raise ValueError("keys must match number of frames")
    with obs_span("frame.concat_columns", frames=len(frames), join=join):
        return _concat_columns(frames, keys, join)


def _concat_columns(frames: Sequence[DataFrame],
                    keys: Sequence[Hashable] | None,
                    join: str) -> DataFrame:
    common = frames[0].index
    if join == "inner":
        for f in frames[1:]:
            common = common.intersection(f.index)
    elif join == "outer":
        for f in frames[1:]:
            common = common.union(f.index)
    else:
        raise ValueError(f"join must be 'inner' or 'outer', got {join!r}")

    out = DataFrame(index=common)
    seen: set[Hashable] = set()
    for i, f in enumerate(frames):
        aligned = f if f.index.equals(common) else f.reindex(common)
        prefix = keys[i] if keys is not None else None
        for c in aligned.columns:
            key = c
            if prefix is not None:
                key = (prefix,) + (c if isinstance(c, tuple) else (c,))
            if key in seen:
                raise ValueError(f"duplicate column {key!r} in concat_columns")
            seen.add(key)
            out[key] = aligned.column(c)
    return out

