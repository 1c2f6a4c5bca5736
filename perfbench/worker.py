"""The process that does the work: set up one workload, then time it.

Started by ``run.py`` with ``PYTHONHASHSEED`` pinned.  The set-up clock
starts at the spawn time ``run.py`` passes in, before ``import repro``,
and stops at the first timed op.  The result goes to ``--out`` as JSON.

Untraced (``--trace 0``) the closed loop runs whole cycles until both
``--seconds`` have passed and ``--min-ops`` ops have completed, and
returns every op latency, rescaled to a reference host speed and as
measured.  Traced (``--trace 1``) cycles alternate
untraced and traced (every library call wrapped in a span) for
``--seconds``, then the workload's probes run; the per-layer metrics
come from those spans, and from ``fill_in`` for the layers the workload
never calls.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

# The host's CPU speed drifts by up to about 1.9x over tens of seconds
# (perfbench/README.md, Steadiness).  Op latencies are rescaled to the
# speed at which LOOP_N iterations of a pure-Python loop take
# REF_LOOP_MS, so that drift does not read as a change in the program.
LOOP_N = 150_000
REF_LOOP_MS = 10.0
CALIBRATE_EVERY_S = 0.25

SETUP_PARTS = ("import", "generate", "ingest", "server_ready", "warmup")

# per-layer metric -> span whose median self time it reports
SPAN_METRICS = {
    "readers.read_cali_json_ms": "readers.read_cali_json",
    "ingest.validate_cali_payload_ms": "ingest.validate_cali_payload",
    "ingest.load_ensemble_ms": "ingest.load_ensemble",
    "graph.union_many_ms": "graph.union_many",
    "core.from_caliperreader_ms": "core.from_caliperreader",
    "frame.concat_rows_ms": "frame.concat_rows",
    "core.save_thicket_ms": "core.io.save_thicket",
    "core.load_thicket_ms": "core.io.load_thicket",
    "core.copy_ms": "core.copy",
    "core.stats.mean_ms": "core.stats.mean",
    "core.stats.std_ms": "core.stats.std",
    "core.stats.median_ms": "core.stats.median",
    "core.stats.percentiles_ms": "core.stats.percentiles",
    "core.stats.grouped_values_ms": "core.stats.grouped_values",
    "core.groupby_metadata_ms": "core.groupby_metadata",
    "core.filter_metadata_ms": "core.filter_metadata",
    "core.intersection_ms": "core.intersection",
    "core.concat_thickets_ms": "core.concat_thickets",
    "frame.multiindex_build_ms": "frame.multiindex_build",
    "frame.get_indexer_ms": "frame.get_indexer",
    "frame.groupby_agg_ms": "frame.groupby_agg",
    "frame.join_on_index_ms": "frame.join_on_index",
    "query.parse_string_dialect_ms": "query.parse_string_dialect",
    "query.validate_query_ms": "query.validate_query",
    "core.query_thicket_ms": "core.query_thicket",
    "viz.render_tree_ms": "viz.render_tree",
    "client.query_ms": "client.query",
    "client.stats_ms": "client.stats",
    "client.ingest_ms": "client.ingest",
    "client.datasets_ms": "client.datasets",
    "serve.dispatch_query_ms": "serve.dispatch_query",
    "serve.dispatch_stats_ms": "serve.dispatch_stats",
    "serve.dispatch_ingest_ms": "serve.dispatch_ingest",
}
# per-layer metrics a workload's probe reports (0 where it has none)
PROBE_METRICS = ("core.store_bytes", "core.stats.grouped_values_calls",
                 "serve.http_overhead_ms", "serve.cache_hit_ratio",
                 "serve.sheds", "serve.response_bytes", "client.hedges",
                 "client.retries")
UNITS = {"_per_s": "1/s", "_s": "s", "_ms": "ms", "_mb": "MiB",
         "_bytes": "bytes", "_ratio": "ratio", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def loop_ms() -> float:
    """The host's speed: best of three timings of a fixed loop, in ms."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class Timed(NamedTuple):
    untraced: list[float]  # op latencies at the reference speed, s
    traced: list[float]
    raw: list[float]  # untraced op latencies as measured, s
    loops: list[float]  # every loop_ms() reading
    passed: int


def timed_loop(wl, seconds: float, min_ops: int,
               traced=lambda k: False) -> Timed:
    """Run whole cycles; cycle k runs with spans on when ``traced(k)``.

    ``loop_ms()`` runs between ops at least every ``CALIBRATE_EVERY_S``;
    each op's latency is rescaled by ``REF_LOOP_MS`` over the mean of
    the two readings around it.
    """
    ops: tuple[list, list] = ([], [])  # (latency, readings before it)
    loops = [loop_ms()]
    last = time.monotonic()
    passed = 0
    k = 0
    start = time.monotonic()
    while True:
        if traced(k):
            wl.t.enable()
        else:
            wl.t.disable()
        into = ops[wl.t.enabled]
        for op in wl.cycle(k):
            if time.monotonic() - last >= CALIBRATE_EVERY_S:
                loops.append(loop_ms())
                last = time.monotonic()
            t0 = time.perf_counter()
            try:
                out = wl.t.call("op." + op.kind, op.run)
            except Exception as e:  # pragma: failed ops count against ok_ratio
                into.append((time.perf_counter() - t0, len(loops)))
                print(f"op {op.kind} failed: {type(e).__name__}: {e}",
                      file=sys.stderr)
                continue
            into.append((time.perf_counter() - t0, len(loops)))
            try:
                passed += bool(op.check(out))
            except Exception as e:  # pragma: malformed answers fail the check
                print(f"check {op.kind} raised: {type(e).__name__}: {e}",
                      file=sys.stderr)
        k += 1
        if (time.monotonic() - start >= seconds
                and len(ops[0]) + len(ops[1]) >= min_ops):
            wl.t.disable()
            break
    loops.append(loop_ms())

    def scaled(xs):
        return [d * 2 * REF_LOOP_MS / (loops[i - 1] + loops[i])
                for d, i in xs]

    return Timed(scaled(ops[0]), scaled(ops[1]), [d for d, _ in ops[0]],
                 loops, passed)


def measure(wl, args) -> dict:
    t = timed_loop(wl, args.seconds, args.min_ops)
    return {"latencies": t.untraced, "raw_latencies": t.raw,
            "loop_ms": t.loops, "passed": t.passed,
            "peak_rss_mb": wl.peak_rss_mb()}


def fill_in(wl, args) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer times the workload never measures, from the others.

    A per-layer time the workload never measures itself would read 0 on
    every run.  It is taken instead from one traced set-up, cycle and
    probe of the workload whose own calls make it, at that workload's
    own size, so a metric name stands for the same input on every
    workload.  Returns the values and, per metric, the workload that
    measured it.
    """
    from tracing import Tracer, all_spans, median_ms
    from workloads import WORKLOADS

    values: dict[str, float] = {}
    source: dict[str, str] = {}
    for cls in WORKLOADS.values():
        if isinstance(wl, cls):
            continue
        other = cls(args.seed, args.scale, Path(args.workdir) / cls.name,
                    Tracer(), server_metrics=True)
        try:
            other.generate()
            other.ingest()
            t0 = time.monotonic()
            if other.start_server():
                got = {"setup.server_ready_s": time.monotonic() - t0}
            else:
                got = {}
            other.warmup()
            other.t.enable()
            for op in other.cycle(0):
                op.check(op.run())
            extra = other.probe()
        finally:
            other.close()
        med = median_ms(all_spans(other.t))
        got.update({m: med[span] for m, span in SPAN_METRICS.items()
                    if span in med})
        got.update({m: v for m, v in extra.items()
                    if unit_of(m) in ("s", "ms")})
        for m, v in got.items():
            values.setdefault(m, v)
            source.setdefault(m, cls.name)
    return values, source


def measure_traced(wl, args, parts: dict) -> dict:
    from repro.obs import write_chrome_trace
    from tracing import LAYERS, all_spans, layer_calls, layer_of, median_ms

    # alternate untraced and traced cycles, so both see the same state
    t = timed_loop(wl, args.seconds, 2 * len(wl.cycle(0)),
                   traced=lambda k: k % 2 == 1)
    lat_u, lat_t, passed = t.untraced, t.traced, t.passed
    spans = all_spans(wl.t)
    op_time = sum(s.duration for s in spans if s.name.startswith("op."))
    stats_time = sum(s.self_time for s in spans
                     if layer_of(s.name) == "core.stats"
                     or s.name == "core.groupby_metadata")
    wl.t.enable()
    extra = wl.probe()
    wl.t.disable()
    spans = all_spans(wl.t)
    calls = layer_calls(spans)
    med = median_ms(spans)
    write_chrome_trace(wl.t, args.trace_out)
    own = {f"setup.{p}_s": parts[p] for p in SETUP_PARTS if p in parts}
    own.update({m: med[span] for m, span in SPAN_METRICS.items()
                if span in med})
    own.update({m: float(v) for m, v in extra.items()})
    fill, source = fill_in(wl, args)
    source = {m: w for m, w in source.items() if m not in own}
    values = {**own, **{m: fill[m] for m in source}}
    values.update({m: 0.0 for m in PROBE_METRICS if m not in values})
    values.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    values["trace.overhead_ratio"] = (len(lat_t) / sum(lat_t)) / (
        len(lat_u) / sum(lat_u))
    values["trace.stats_groupby_share"] = stats_time / op_time
    attempted = len(lat_u) + len(lat_t)
    return {"values": values, "filled_in": source, "attempted": attempted,
            "failed": attempted - passed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--min-ops", type=int, default=1, dest="min_ops")
    ap.add_argument("--plant-fault", action="store_true", dest="plant_fault")
    ap.add_argument("--spawn-time", type=float, default=None,
                    dest="spawn_time")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out", dest="trace_out")
    args = ap.parse_args(argv)
    spawn = args.spawn_time if args.spawn_time is not None else T_START
    t0 = time.monotonic()
    before = loop_ms()
    spawn += time.monotonic() - t0  # the reading is not part of set-up

    import repro  # noqa: F401  (the import users pay is part of set-up)
    from tracing import Tracer
    from workloads import WORKLOADS

    parts = {"import": time.monotonic() - spawn}
    wl = WORKLOADS[args.workload](
        args.seed, args.scale, Path(args.workdir), Tracer(),
        plant=args.plant_fault, server_metrics=bool(args.trace))
    try:
        for part, fn in (("generate", wl.generate), ("ingest", wl.ingest),
                         ("server_ready", wl.start_server),
                         ("warmup", wl.warmup)):
            t0 = time.monotonic()
            # a workload without a server has no server_ready part
            if fn() is not False:
                parts[part] = time.monotonic() - t0
        gc.collect()
        result = {"setup_s": time.monotonic() - spawn}
        result.update(measure_traced(wl, args, parts) if args.trace
                      else measure(wl, args))
        if not args.trace:
            # like an op: at the mean of the readings around it
            result["raw_setup_s"] = result["setup_s"]
            result["setup_s"] *= 2 * REF_LOOP_MS / (
                before + result["loop_ms"][0])
    finally:
        wl.close()
    Path(args.out).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
