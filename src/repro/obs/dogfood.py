"""Thicket-on-Thicket: load the library's own trace as a ``Thicket``.

The closing move of the observability layer: a span tree *is* a
call-tree profile, so instead of inventing a bespoke trace viewer we
convert traces into the ensemble container this library exists to
provide.  Each root span becomes one run (= one profile row), nested
spans become call-tree nodes keyed by their name path, and repeated
spans at the same path aggregate — exactly how Caliper aggregates
region visits.  The resulting Thicket flows through every existing
API: ``tk.tree()``, ``repro.core.stats``, the query dialect, and viz.

Example::

    import repro.obs as obs

    obs.enable()
    ... run an ingest or analysis ...
    tk = obs.to_thicket(obs.get_telemetry())
    print(tk.tree(metric_column="time (exc)"))
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from .core import Span, Telemetry
from .export import load_trace

__all__ = ["to_thicket", "spans_to_graphframes"]

# Metric column names follow the Caliper conventions used everywhere
# else in the repo so default-metric and exc/inc detection just work.
WALL_EXC = "time (exc)"
WALL_INC = "time (inc)"
CPU_INC = "cpu (inc)"
CALLS = "calls"


def _span_literal(spans: "Sequence[Span]") -> list[dict]:
    """Aggregate same-named sibling spans into one literal node each."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = []
    for name, group in by_name.items():
        wall = sum(s.duration for s in group)
        cpu = sum(s.cpu_time for s in group)
        self_wall = sum(s.self_time for s in group)
        children = [c for s in group for c in s.children]
        spec: dict[str, Any] = {
            "frame": {"name": name, "type": "region"},
            "metrics": {
                WALL_EXC: self_wall,
                WALL_INC: wall,
                CPU_INC: cpu,
                CALLS: float(len(group)),
            },
        }
        if children:
            spec["children"] = _span_literal(children)
        out.append(spec)
    return out


def _scalar_attrs(span: Span) -> dict[str, Any]:
    """The span's JSON-scalar attributes (non-scalars are dropped)."""
    return {str(k): v for k, v in span.attrs.items()
            if isinstance(v, (str, int, float, bool)) or v is None}


def spans_to_graphframes(roots: Sequence[Span]):
    """One :class:`~repro.graph.GraphFrame` per root span (per run).

    Scalar span attributes — whether passed at ``span(...)`` creation
    or attached later via ``span.set(...)`` — become metadata columns
    on the run: the root span's as ``span.<key>``, nested spans' as
    ``span.<name>.<key>`` (last write wins across repeated spans at the
    same name).  This is how perf-store runs keep their commit /
    machine / workload context through the Thicket conversion.
    """
    from ..graph import GraphFrame

    gfs = []
    for run_index, root in enumerate(roots):
        gf = GraphFrame.from_literal(_span_literal([root]))
        n_spans = sum(1 for _ in root.walk())
        gf.metadata.update({
            "trace.run": run_index,
            "trace.root": root.name,
            "trace.tid": root.tid,
            "trace.spans": n_spans,
            "trace.wall": root.duration,
        })
        for span in root.walk():
            prefix = "span." if span is root else f"span.{span.name}."
            for key, value in _scalar_attrs(span).items():
                gf.metadata[f"{prefix}{key}"] = value
        gf.default_metric = WALL_EXC
        gfs.append(gf)
    return gfs


def to_thicket(source: "str | Path | Telemetry | Sequence[Span]",
               metrics: dict[str, Any] | None = None):
    """Convert a trace into a real :class:`repro.core.Thicket`.

    Parameters
    ----------
    source:
        A Chrome ``trace_event`` file path (read with
        :func:`~repro.obs.load_trace`), a :class:`Telemetry` instance,
        or a sequence of root :class:`Span` objects.
    metrics:
        Optional metrics snapshot to stash in ``thicket.provenance``
        (read from the trace file automatically when loading one).

    Returns
    -------
    Thicket
        One profile per root span ("run"), call-tree nodes per span
        name path, with ``time (exc)`` / ``time (inc)`` / ``cpu (inc)``
        / ``calls`` metric columns.  Raises
        :class:`repro.errors.CompositionError` on an empty trace.
    """
    from ..core.thicket import Thicket
    from ..errors import CompositionError

    if isinstance(source, (str, Path)):
        roots, file_metrics = load_trace(source)
        if metrics is None:
            metrics = file_metrics
    elif isinstance(source, Telemetry):
        roots = source.finished_spans()
        if metrics is None:
            snap = source.metrics.snapshot()
            metrics = snap if any(snap.values()) else None
    else:
        roots = [s for s in source if isinstance(s, Span)]

    roots = [r for r in roots if r.end is not None]
    if not roots:
        raise CompositionError("trace contains no completed spans")

    gfs = spans_to_graphframes(roots)
    tk = Thicket._compose(gfs, profile_ids=list(range(len(gfs))))
    tk.default_metric = WALL_EXC
    tk.provenance["trace"] = {
        "runs": len(roots),
        "spans": sum(1 for r in roots for _ in r.walk()),
    }
    if metrics:
        tk.provenance["trace_metrics"] = metrics
    return tk
