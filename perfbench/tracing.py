"""Spans around the benchmark's calls into the library.

The benchmark routes each call into a ``repro`` module's public
function through :meth:`Tracer.call`.  ``Tracer`` is a private
:class:`repro.obs.Telemetry`, so the benchmark's spans stay apart from
any the library records on its own singleton.  Disabled, a call is a
plain call; enabled, it records a span in memory.  Spans are written
out once, when the run ends, with :func:`repro.obs.write_chrome_trace`.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.obs import Span, Telemetry

# Layer of a span name: the longest prefix listed here.
LAYERS = ("readers", "ingest", "graph", "frame", "core.stats", "core.io",
          "core", "query", "viz", "serve", "client")


def layer_of(name: str) -> str | None:
    best = None
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and (
                best is None or len(layer) > len(best)):
            best = layer
    return best


class Tracer(Telemetry):
    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def all_spans(tel: Telemetry) -> list[Span]:
    return [s for root in tel.finished_spans() for s in root.walk()]


def median_ms(spans: list[Span]) -> dict[str, float]:
    """Median self time per span name, in milliseconds."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s.self_time)
    return {n: statistics.median(v) * 1e3 for n, v in by_name.items()}


def layer_calls(spans: list[Span]) -> dict[str, int]:
    """Number of spans per layer."""
    counts = {layer: 0 for layer in LAYERS}
    for s in spans:
        layer = layer_of(s.name)
        if layer is not None:
            counts[layer] += 1
    return counts
