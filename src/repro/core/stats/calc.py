"""Shared machinery for aggregated statistics (§4.2.1).

Every statistics function reduces the performance-data rows of each
call-tree node across profiles and appends the result to the thicket's
``statsframe`` under ``"<column>_<stat>"`` (tuple columns keep their
header level: ``("CPU", "time (exc)_std")``), matching the naming in
the paper's Fig. 9 (``Retiring_std``, ``time (exc)_std``).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np

from ...frame.groupby import suffix_key
from ...frame.index import factorize, plain_values
from ...frame.segment import SEGMENT_KERNELS, Segments, segment_values
from ...obs import counter as obs_counter
from ...obs import span as obs_span

__all__ = ["apply_nodewise", "reduce_nodewise", "suffix_key",
           "resolve_columns", "grouped_values", "grouped_by_metadata"]


def resolve_columns(tk, columns: Sequence[Hashable] | None) -> list[Hashable]:
    """Default to every numeric metric column when none are given."""
    if columns is None:
        return tk.performance_cols
    missing = [c for c in columns if c not in tk.dataframe]
    if missing:
        raise KeyError(f"columns not in performance data: {missing!r}")
    return list(columns)


def _node_segments(tk, column: Hashable) -> Segments:
    """A metric's values grouped by the codes of the performance
    index's cached node partition (see :func:`grouped_values`)."""
    obs_counter("stats.grouped_values")
    return segment_values(tk.dataframe.column(column),
                          tk.dataframe.index.partition(0),
                          drop_nonfinite=True)


def _statsframe_codes(tk) -> np.ndarray:
    """Node-partition code of each statsframe row (-1: no perf rows)."""
    part = tk.dataframe.index.partition(0)
    return part.codes_of(tk.statsframe.index.values)


def grouped_values(tk, column: Hashable) -> tuple[list, list[np.ndarray]]:
    """Per-node float arrays of a metric across profiles.

    Returns ``(nodes, arrays)`` ordered like the statsframe index, with
    missing values dropped per node.  Non-finite values (``±inf`` from
    corrupt or overflowed metrics) are missing like NaN and ``None``,
    so sparse partial-ensemble tables degrade gracefully instead of
    propagating ``inf`` through every reduction.
    """
    arrays = _node_segments(tk, column).arrays()
    empty = np.empty(0)
    return (list(tk.statsframe.index.values),
            [arrays[c] if c >= 0 else empty for c in _statsframe_codes(tk)])


def grouped_by_metadata(tk, column: Hashable, by: Hashable | Sequence[Hashable]
                        ) -> dict[Any, dict[Hashable, np.ndarray]]:
    """A metric's values per call-tree node and metadata value.

    *by* names one metadata column, whose values are the keys; a list or
    tuple of names gives tuple keys.  Returns ``{node: {key: values}}``:
    nodes in the order of their first row, keys in the order of their
    first row of the node, values in row order.  The :func:`grouped_values`
    rule holds: NaN, ``None`` and ``±inf`` cells are missing, the rows of
    a profile whose key has a ``None`` or NaN part are left out, and a
    (node, key) pair with no values is absent.
    """
    several = isinstance(by, (list, tuple))
    cells = [plain_values(tk.metadata.column(c))
             for c in (by if several else [by])]
    meta_keys = list(zip(*cells)) if cells else [()] * len(tk.metadata)
    index = tk.dataframe.index
    nodes, profiles = index.partition(0), index.partition(1)
    key_codes: dict[Hashable, int] = {}
    profile_key = np.full(len(profiles.uniques), -1, dtype=np.intp)
    for p, row in enumerate(tk.metadata.index.get_indexer(profiles.uniques)):
        key = meta_keys[row] if row >= 0 else (None,)
        if None not in key and math.nan not in key:
            key = key if several else key[0]
            profile_key[p] = key_codes.setdefault(key, len(key_codes))
    row_key = profile_key[profiles.codes]
    kept = row_key >= 0
    pairs = factorize((nodes.codes[kept] * len(key_codes)
                       + row_key[kept]).tolist())
    segs = segment_values(tk.dataframe.column(column)[kept], pairs,
                          drop_nonfinite=True)
    keys, out = list(key_codes), {}
    for pair, values in zip(pairs.uniques, segs.arrays()):
        if len(values):
            n, k = divmod(pair, len(keys))
            out.setdefault(nodes.uniques[n], {})[keys[k]] = values
    return {node: out[node] for node in nodes.uniques if node in out}


def reduce_nodewise(tk, columns: Sequence[Hashable] | None,
                    kernels: Mapping[str, Callable[[Segments], np.ndarray]]
                    ) -> list[Hashable]:
    """Reduce each column per node with every kernel; append to the
    statsframe as ``<column>_<suffix>``.

    Each column is grouped once for all kernels.  A node without
    values gets NaN.  Returns the created statsframe column keys,
    kernel-major.
    """
    cols = resolve_columns(tk, columns)
    codes = _statsframe_codes(tk)
    has_rows = codes >= 0
    results: dict[str, list[np.ndarray]] = {k: [] for k in kernels}
    with obs_span("stats.apply_nodewise", stat=",".join(kernels),
                  columns=len(cols)):
        for col in cols:
            segs = _node_segments(tk, col)
            for suffix, kernel in kernels.items():
                out = np.full(len(codes), np.nan)
                out[has_rows] = kernel(segs)[codes[has_rows]]
                results[suffix].append(out)
    created = []
    for suffix, per_col in results.items():
        for col, values in zip(cols, per_col):
            out_key = suffix_key(col, suffix)
            tk.statsframe[out_key] = values
            created.append(out_key)
    return created


def apply_nodewise(tk, columns: Sequence[Hashable] | None, suffix: str,
                   reducer: str | Callable[[np.ndarray], float]
                   ) -> list[Hashable]:
    """Reduce each column per node and append to the statsframe.

    *reducer* names a segment kernel (``"mean"``, ``"std"``, ...; see
    :data:`repro.frame.segment.SEGMENT_KERNELS`) or is a callable
    applied to each node's array of values.  Returns the list of
    created statsframe column keys.
    """
    if isinstance(reducer, str):
        kernel = SEGMENT_KERNELS[reducer]
    else:
        def kernel(segs: Segments) -> np.ndarray:
            return np.array([reducer(a) if len(a) else np.nan
                             for a in segs.arrays()], dtype=np.float64)
    return reduce_nodewise(tk, columns, {suffix: kernel})
