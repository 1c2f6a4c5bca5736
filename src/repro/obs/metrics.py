"""Thread-safe registry of counters, gauges and histograms.

The registry is deliberately tiny: three dictionaries behind one lock.
Counters accumulate, gauges hold the last value, and histograms keep a
bounded sample plus exact count/sum/min/max so summaries stay correct
even after the sample saturates. Everything is standard library only
so the registry is importable from the bottom of the stack.
"""

from __future__ import annotations

import threading
from typing import Any

__all__ = ["MetricsRegistry", "HistogramSummary", "format_snapshot"]

# Keep at most this many raw observations per histogram; beyond it the
# sample decimates (every other element) so memory stays bounded while
# count/sum/min/max remain exact.
_HISTOGRAM_SAMPLE_CAP = 8192

class HistogramSummary:
    """Exact count/sum/min/max plus a bounded sample for quantiles."""

    __slots__ = ("count", "total", "minimum", "maximum", "sample")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.sample: list[float] = []

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.sample.append(value)
        if len(self.sample) > _HISTOGRAM_SAMPLE_CAP:
            del self.sample[::2]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        if not self.sample:
            return float("nan")
        ordered = sorted(self.sample)
        pos = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[pos]

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else float("nan"),
            "max": self.maximum if self.count else float("nan"),
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms behind a single lock.

    ``increment`` is the hot call; it does one lock acquire and one
    dict update — safe to hammer from a thread pool.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    # -- write ---------------------------------------------------------
    def increment(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = HistogramSummary()
            hist.add(value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- read ----------------------------------------------------------
    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, float("nan"))

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable copy of every metric."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return (len(self._counters) + len(self._gauges)
                    + len(self._histograms))

    def summary(self) -> str:
        """Plain-text table of all metrics, sorted by name."""
        return format_snapshot(self.snapshot())


def format_snapshot(snap: dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as a plain-text
    table — also used by ``repro obs`` on snapshots read back from
    trace files, where no live registry exists to rebuild."""
    lines = []
    if snap.get("counters"):
        lines.append("counters:")
        width = max(len(k) for k in snap["counters"])
        for name in sorted(snap["counters"]):
            value = snap["counters"][name]
            shown = int(value) if value == int(value) else value
            lines.append(f"  {name:<{width}}  {shown}")
    if snap.get("gauges"):
        lines.append("gauges:")
        width = max(len(k) for k in snap["gauges"])
        for name in sorted(snap["gauges"]):
            lines.append(f"  {name:<{width}}  {snap['gauges'][name]:g}")
    if snap.get("histograms"):
        lines.append("histograms:")
        for name in sorted(snap["histograms"]):
            h = snap["histograms"][name]
            lines.append(
                f"  {name}  n={h['count']} sum={h['sum']:.6g} "
                f"mean={h['mean']:.6g} min={h['min']:.6g} "
                f"p50={h['p50']:.6g} p95={h['p95']:.6g} "
                f"p99={h['p99']:.6g} max={h['max']:.6g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
