"""Metadata group-by (§4.1.2, Fig. 7).

Grouping on one or more metadata columns partitions the ensemble into
one new Thicket per unique value combination, returned as an ordered
mapping keyed exactly like the paper's output::

    [('clang-9.0.0', 1048576), ('clang-9.0.0', 4194304), ...]

Keys are plain Python values; every NaN cell is the one key ``math.nan``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..frame.index import _partition, factorize, plain_values, sort_positions

__all__ = ["groupby_metadata", "GroupByResult"]


class GroupByResult(dict):
    """Ordered mapping group-key → Thicket, with a friendly repr."""

    def __repr__(self) -> str:
        return (f"{len(self)} thickets created...\n"
                f"{list(self.keys())!r}")


def groupby_metadata(tk, by: str | Sequence[str]) -> GroupByResult:
    """Partition *tk* by unique value (combinations) of metadata columns,
    in sorted key order; each group keeps its parent's row order."""
    columns = [by] if isinstance(by, str) else list(by)
    for c in columns:
        if c not in tk.metadata:
            raise KeyError(f"metadata column {c!r} not found")
    meta = tk.metadata
    cells = [plain_values(meta.column(c)) for c in columns]
    keys = factorize(list(zip(*cells)) if cells else [()] * len(meta))
    n = len(keys.uniques)

    def by_group(meta_rows: np.ndarray):  # row -1 (no metadata): code n
        return _partition(list(range(n + 1)),
                          np.append(keys.codes, n)[meta_rows])

    profiles = tk.dataframe.index.partition(1)
    rows = by_group(meta.index.get_indexer(profiles.uniques)[profiles.codes])
    listed = by_group(meta.index.get_indexer(tk.profile))

    result = GroupByResult()
    for code in sort_positions(keys.uniques):
        key = keys.uniques[code]
        result[key[0] if len(columns) == 1 else key] = tk._derive(
            tk.dataframe.take(rows.segment(code)),
            metadata=meta.take(keys.segment(code)),
            profiles=[tk.profile[i] for i in listed.segment(code)])
    return result
