"""``repro.obs`` — self-instrumentation: tracing, metrics, dogfooding.

A performance-analysis library should be able to explain its own
performance.  This subsystem provides:

* a zero-dependency tracing core (:func:`span`, :class:`Telemetry`)
  that is a no-op until enabled — instrumented hot paths cost almost
  nothing when tracing is off;
* a thread-safe :class:`MetricsRegistry` of counters / gauges /
  histograms with module-level :func:`counter` / :func:`gauge` /
  :func:`observe` helpers;
* exporters: Chrome ``trace_event`` files loadable in Perfetto /
  ``about:tracing`` (the one trace file format, read back by
  :func:`load_trace`), and plain-text summary tables;
* the dogfood closer, :func:`to_thicket`, which converts a span tree
  into a real :class:`repro.core.Thicket` so every existing stats /
  query / viz API analyzes the library's own execution;
* a background-thread :class:`SamplingProfiler` whose samples export
  as collapsed stacks (flamegraph.pl / speedscope input);
* :func:`configure_logging` for the ``repro.*`` structured-logging
  hierarchy used by the ingest pipeline.

CLI integration: every ``repro`` subcommand accepts global
``--trace PATH``, ``--metrics``, ``--log-level``, and
``--profile HZ`` flags, and ``repro obs TRACE`` summarizes a
previously recorded trace.
"""

from __future__ import annotations

import logging
import sys

from .core import (
    Span,
    Telemetry,
    counter,
    disable,
    enable,
    gauge,
    get_telemetry,
    observe,
    reset,
    span,
    telemetry_enabled,
)
from .dogfood import spans_to_graphframes, to_thicket
from .export import (
    load_trace,
    read_chrome_trace,
    records_to_spans,
    spans_to_records,
    summarize_spans,
    write_chrome_trace,
)
from .metrics import HistogramSummary, MetricsRegistry, format_snapshot
from .sampler import SamplingProfiler, StackSample, collapsed_stacks

__all__ = [
    "Span", "Telemetry", "MetricsRegistry", "HistogramSummary",
    "format_snapshot",
    "span", "counter", "gauge", "observe",
    "enable", "disable", "reset", "get_telemetry", "telemetry_enabled",
    "write_chrome_trace", "read_chrome_trace",
    "load_trace", "summarize_spans", "spans_to_records", "records_to_spans",
    "to_thicket", "spans_to_graphframes",
    "SamplingProfiler", "StackSample", "collapsed_stacks",
    "configure_logging",
]

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def configure_logging(level: str | int = "info",
                      stream=None) -> logging.Logger:
    """Attach a stderr handler to the ``repro`` logger hierarchy.

    Idempotent: re-invoking replaces the level and re-points the
    existing handler at ``stream or sys.stderr`` (whatever ``sys.stderr``
    is *now*) instead of stacking duplicate handlers.  Returns the
    ``repro`` root logger so callers can add their own handlers.
    """
    if isinstance(level, str):
        resolved = getattr(logging, level.upper(), None)
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
        level = resolved
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    marked = [h for h in logger.handlers
              if getattr(h, "_repro_obs_handler", False)]
    if marked:
        for h in marked:
            h.setLevel(level)
            h.setStream(stream or sys.stderr)
    else:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setLevel(level)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        handler._repro_obs_handler = True  # type: ignore[attr-defined]
        logger.addHandler(handler)
    return logger
