"""Segment kernels: one reduction per group over a partitioned column.

A :class:`~repro.frame.index.LevelPartition` orders a frame's rows so
every group is one contiguous segment.  :func:`segment_values` gathers
a column into that order once, drops missing values, and the kernels
below reduce all segments in a handful of numpy calls — ``bincount``
for sums and means, ``reduceat`` for extrema, one ``lexsort`` for
order statistics — instead of one Python-level call per group.

Both :meth:`repro.frame.GroupBy.agg` and :mod:`repro.core.stats` reduce
through this module.  The semantics are those of the per-array
aggregations in :mod:`repro.frame.ops`: missing values are dropped, an
empty segment reduces to NaN, ``var``/``std`` are sample statistics
(``ddof=1``) that give 0.0 for a single value, and ``median`` /
``quantile`` match ``np.median`` / ``np.percentile`` (linear method).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .index import LevelPartition

__all__ = ["Segments", "segment_values", "SEGMENT_KERNELS"]

_NUMERIC = (int, float, np.integer, np.floating)


def _as_float(values: np.ndarray) -> np.ndarray:
    """Float copy of a column; ``None`` becomes NaN.

    Raises ``TypeError`` for a non-numeric object value.
    """
    if values.dtype.kind in "ifb":
        return values.astype(np.float64)
    out = np.empty(len(values), dtype=np.float64)
    for i, v in enumerate(values):
        if v is None:
            out[i] = np.nan
        elif isinstance(v, _NUMERIC):
            out[i] = float(v)
        else:
            raise TypeError(f"non-numeric value {v!r} in numeric aggregation")
    return out


class Segments:
    """The non-missing values of one column, grouped by partition code.

    ``data[starts[c]:starts[c + 1]]`` are the values of code ``c`` in
    row order; ``seg`` holds the code of each value.  Every kernel
    returns one float per code.
    """

    __slots__ = ("data", "seg", "counts", "starts", "_sorted")

    def __init__(self, data: np.ndarray, seg: np.ndarray, n_codes: int):
        self.data = data
        self.seg = seg
        self.counts = np.bincount(seg, minlength=n_codes)
        self.starts = np.zeros(n_codes + 1, dtype=np.intp)
        np.cumsum(self.counts, out=self.starts[1:])
        self._sorted: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.counts)

    def arrays(self) -> list[np.ndarray]:
        """Per-code views of the values (empty for a code with none)."""
        if not len(self):
            return []
        return np.split(self.data, self.starts[1:-1])

    def _total(self, weights: np.ndarray) -> np.ndarray:
        # bincount of no values gives integer zeros; keep it float
        return np.bincount(self.seg, weights=weights,
                           minlength=len(self)).astype(np.float64, copy=False)

    def _per_value(self, total: np.ndarray, denom: np.ndarray) -> np.ndarray:
        out = np.full(len(self), np.nan)
        np.divide(total, denom, out=out, where=self.counts > 0)
        return out

    def sum(self) -> np.ndarray:
        total = self._total(self.data)
        total[self.counts == 0] = np.nan
        return total

    def mean(self) -> np.ndarray:
        return self._per_value(self._total(self.data), self.counts)

    def var(self) -> np.ndarray:
        """Two-pass sample variance; 0.0 for a single value."""
        with np.errstate(invalid="ignore"):
            dev = self.data - self.mean()[self.seg]
            ss = self._total(dev * dev)
        out = self._per_value(ss, np.maximum(self.counts - 1, 1))
        out[self.counts == 1] = 0.0
        return out

    def std(self) -> np.ndarray:
        return np.sqrt(self.var())

    def _extreme(self, ufunc: np.ufunc) -> np.ndarray:
        out = np.full(len(self), np.nan)
        filled = self.counts > 0
        if filled.any():
            out[filled] = ufunc.reduceat(self.data, self.starts[:-1][filled])
        return out

    def min(self) -> np.ndarray:
        return self._extreme(np.minimum)

    def max(self) -> np.ndarray:
        return self._extreme(np.maximum)

    def sorted_data(self) -> np.ndarray:
        """Values sorted within each segment (one lexsort, cached)."""
        if self._sorted is None:
            self._sorted = self.data[np.lexsort((self.data, self.seg))]
        return self._sorted

    def median(self) -> np.ndarray:
        """Middle value, or the mean of the two middle values."""
        x = self.sorted_data()
        out = np.full(len(self), np.nan)
        filled = self.counts > 0
        n, start = self.counts[filled], self.starts[:-1][filled]
        lo, hi = x[start + (n - 1) // 2], x[start + n // 2]
        with np.errstate(invalid="ignore", over="ignore"):
            out[filled] = np.where(n % 2 == 1, lo, (lo + hi) / 2.0)
        return out

    def quantile(self, q: float) -> np.ndarray:
        """``np.percentile(values, 100 * q)`` per segment (linear method)."""
        x = self.sorted_data()
        out = np.full(len(self), np.nan)
        filled = self.counts > 0
        n, start = self.counts[filled], self.starts[:-1][filled]
        virtual = (n - 1) * q
        prev = np.floor(virtual)
        top = virtual >= n - 1
        lo = np.where(top, n - 1, prev).astype(np.intp)
        hi = np.where(top, n - 1, prev + 1).astype(np.intp)
        gamma = virtual - np.where(top, -1, prev)
        a, b = x[start + lo], x[start + hi]
        with np.errstate(invalid="ignore"):
            diff = b - a
            out[filled] = np.where(gamma >= 0.5, b - diff * (1 - gamma),
                                   a + diff * gamma)
        return out


def segment_values(values: np.ndarray, part: LevelPartition,
                   drop_nonfinite: bool = False) -> Segments:
    """Group a column's values by *part*, dropping missing ones.

    NaN and ``None`` are always dropped; ``drop_nonfinite`` drops
    ``±inf`` too.  Raises ``TypeError`` for a non-numeric value.
    """
    data = _as_float(values[part.order])
    keep = np.isfinite(data) if drop_nonfinite else ~np.isnan(data)
    seg = part.sorted_codes
    if not keep.all():
        data, seg = data[keep], seg[keep]
    return Segments(data, seg, len(part.uniques))


SEGMENT_KERNELS: dict[str, Callable[[Segments], np.ndarray]] = {
    "mean": Segments.mean,
    "median": Segments.median,
    "sum": Segments.sum,
    "min": Segments.min,
    "max": Segments.max,
    "std": Segments.std,
    "var": Segments.var,
}
