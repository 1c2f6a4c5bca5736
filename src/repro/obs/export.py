"""Trace exporters and loaders: Chrome ``trace_event``, text.

Two views of one span forest:

``write_chrome_trace`` / ``read_chrome_trace``
    The Trace Event Format consumed by Perfetto / ``about:tracing``
    (complete ``"ph": "X"`` events, microsecond timestamps).  Span ids
    and parent links ride along in ``args`` so the tree also
    round-trips losslessly, with attributes, CPU time, errors and the
    metrics snapshot.  This is the one trace file format: ``--trace``
    writes it, and ``repro obs``, :func:`repro.obs.to_thicket` and
    ``repro perf`` read it through :func:`load_trace`.
``summarize_spans``
    Aggregated plain-text table (calls, wall, self, CPU per span
    name) for terminal consumption.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..ioutil import atomic_write_text
from .core import Span, Telemetry

__all__ = [
    "spans_to_records", "records_to_spans",
    "write_chrome_trace", "read_chrome_trace",
    "load_trace", "summarize_spans",
]


def _all_roots(spans: "Sequence[Span] | Telemetry") -> list[Span]:
    if isinstance(spans, Telemetry):
        return spans.finished_spans()
    return list(spans)


def spans_to_records(roots: Sequence[Span]) -> list[dict[str, Any]]:
    """Flatten a span forest to JSON-serialisable dicts (pre-order)."""
    records = []
    for root in roots:
        for s in root.walk():
            rec: dict[str, Any] = {
                "sid": s.sid,
                "parent": s.parent_sid,
                "name": s.name,
                "tid": s.tid,
                "start": s.start,
                "end": s.end if s.end is not None else s.start,
                "cpu_start": s.cpu_start,
                "cpu_end": (s.cpu_end if s.cpu_end is not None
                            else s.cpu_start),
            }
            if s.attrs:
                rec["attrs"] = _jsonable(s.attrs)
            if s.error:
                rec["error"] = s.error
            records.append(rec)
    return records


def _jsonable(attrs: dict[str, Any]) -> dict[str, Any]:
    out = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[str(k)] = v
        else:
            out[str(k)] = str(v)
    return out


def records_to_spans(records: Iterable[dict[str, Any]]) -> list[Span]:
    """Rebuild a span forest from flat records; returns the roots."""
    t = Telemetry()  # detached container: ids/clocks unused on rebuild
    by_sid: dict[int, Span] = {}
    roots: list[Span] = []
    for rec in records:
        s = Span(t, rec["name"], dict(rec.get("attrs") or {}))
        s.sid = int(rec["sid"])
        s.parent_sid = (int(rec["parent"])
                        if rec.get("parent") is not None else None)
        s.tid = int(rec.get("tid", 0))
        s.start = float(rec["start"])
        s.end = float(rec["end"])
        s.cpu_start = float(rec.get("cpu_start", 0.0))
        s.cpu_end = float(rec.get("cpu_end", s.cpu_start))
        s.error = rec.get("error")
        by_sid[s.sid] = s
        if s.parent_sid is not None and s.parent_sid in by_sid:
            by_sid[s.parent_sid].children.append(s)
        else:
            s.parent_sid = None
            roots.append(s)
    return roots


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------

def write_chrome_trace(spans: Sequence[Span] | Telemetry,
                       path: str | Path,
                       metrics: dict[str, Any] | None = None,
                       epoch: float | None = None) -> Path:
    """Write a Perfetto/about:tracing-loadable JSON trace.

    Every span becomes a complete ("X") event with microsecond ``ts``
    relative to *epoch* (defaults to the earliest span start).  The
    span id, parent id, and CPU time are carried in ``args`` so
    :func:`read_chrome_trace` reconstructs the exact tree.
    """
    roots = _all_roots(spans)
    if metrics is None and isinstance(spans, Telemetry):
        snap = spans.metrics.snapshot()
        if any(snap.values()):
            metrics = snap
    if epoch is None:
        if isinstance(spans, Telemetry) and spans.epoch:
            epoch = spans.epoch
        else:
            starts = [r.start for r in roots]
            epoch = min(starts) if starts else 0.0

    events = []
    for rec in spans_to_records(roots):
        args = dict(rec.get("attrs") or {})
        args["sid"] = rec["sid"]
        if rec["parent"] is not None:
            args["parent"] = rec["parent"]
        args["cpu_us"] = round(
            (rec["cpu_end"] - rec["cpu_start"]) * 1e6, 3)
        if rec.get("error"):
            args["error"] = rec["error"]
        events.append({
            "name": rec["name"],
            "cat": "repro",
            "ph": "X",
            "ts": round((rec["start"] - epoch) * 1e6, 3),
            "dur": round((rec["end"] - rec["start"]) * 1e6, 3),
            "pid": 1,
            "tid": rec["tid"],
            "args": args,
        })
    doc: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metrics:
        doc["otherData"] = {"metrics": metrics}
    return atomic_write_text(Path(path),
                             json.dumps(doc, sort_keys=True, indent=1))


def read_chrome_trace(path: str | Path) -> tuple[list[Span], dict[str, Any]]:
    """Inverse of :func:`write_chrome_trace`: ``(roots, metrics)``."""
    return _chrome_doc_to_spans(json.loads(Path(path).read_text()))


def load_trace(path: str | Path) -> tuple[list[Span], dict[str, Any]]:
    """:func:`read_chrome_trace`, except that an empty file is a trace
    with no spans."""
    text = Path(path).read_text()
    if not text.strip():
        return [], {}
    return _chrome_doc_to_spans(json.loads(text))


def _chrome_doc_to_spans(doc: Any) -> tuple[list[Span], dict[str, Any]]:
    if isinstance(doc, list):  # bare traceEvents array is also legal
        events, metrics = doc, {}
    else:
        events = doc.get("traceEvents", [])
        metrics = (doc.get("otherData") or {}).get("metrics", {})
    records = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        sid = args.pop("sid", None)
        parent = args.pop("parent", None)
        cpu_us = args.pop("cpu_us", 0.0)
        args.pop("error", None)
        start = float(ev.get("ts", 0.0)) / 1e6
        dur = float(ev.get("dur", 0.0)) / 1e6
        records.append({
            "sid": sid if sid is not None else len(records) + 1,
            "parent": parent,
            "name": ev.get("name", "?"),
            "tid": ev.get("tid", 0),
            "start": start,
            "end": start + dur,
            "cpu_start": 0.0,
            "cpu_end": float(cpu_us) / 1e6,
            "attrs": args,
            "error": ev.get("args", {}).get("error"),
        })
    # chrome traces are not guaranteed parent-before-child; sort by sid
    records.sort(key=lambda r: (r["sid"] is None, r["sid"]))
    return records_to_spans(records), metrics


# ----------------------------------------------------------------------
# text summary
# ----------------------------------------------------------------------

def summarize_spans(spans: Sequence[Span] | Telemetry,
                    limit: int | None = None) -> str:
    """Aggregate spans by name into a plain-text table.

    Columns: call count, total wall seconds, self (non-child) wall
    seconds, mean wall per call, total CPU seconds.  Sorted by total
    wall descending.
    """
    roots = _all_roots(spans)
    agg: dict[str, list[float]] = {}  # name -> [calls, wall, self, cpu]
    for root in roots:
        for s in root.walk():
            row = agg.setdefault(s.name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += s.self_time
            row[3] += s.cpu_time
    if not agg:
        return "(no spans recorded)"
    order = sorted(agg, key=lambda n: agg[n][1], reverse=True)
    if limit is not None:
        order = order[:limit]
    name_w = max(4, max(len(n) for n in order))
    lines = [
        f"{'span':<{name_w}}  {'calls':>7}  {'wall s':>10}  "
        f"{'self s':>10}  {'mean s':>10}  {'cpu s':>10}"
    ]
    for name in order:
        calls, wall, self_t, cpu = agg[name]
        lines.append(
            f"{name:<{name_w}}  {int(calls):>7}  {wall:>10.6f}  "
            f"{self_t:>10.6f}  {wall / calls:>10.6f}  {cpu:>10.6f}")
    total_wall = sum(r.duration for r in roots)
    lines.append(f"{len(roots)} root span(s), "
                 f"{sum(int(v[0]) for v in agg.values())} spans total, "
                 f"{total_wall:.6f}s traced")
    return "\n".join(lines)
