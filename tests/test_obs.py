"""Tests for the self-instrumentation layer (``repro.obs``).

Covers: span tree recording with injected deterministic clocks, the
disabled no-op fast path and its overhead guarantee, thread safety of
the metrics registry under a ThreadPoolExecutor hammer, exporter
round-trips (Chrome trace ↔ spans, Chrome trace validity), structured
logging of the ingest pipeline, per-stage ingest timings, and the
Thicket-on-Thicket dogfood (``to_thicket``) flowing through the
existing stats / query / viz APIs.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.obs as obs
from repro.obs import MetricsRegistry, Telemetry
from repro.obs.metrics import HistogramSummary


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    """Keep the process-wide singleton quiescent across tests."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class FakeClock:
    """Deterministic monotonic clock advancing only on tick()."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def _traced_telemetry():
    """A private Telemetry with a scripted clock and a known span tree.

    root (4s wall total): child.a (1s), child.a (2s), child.b (0.5s).
    """
    wall, cpu = FakeClock(), FakeClock()
    t = Telemetry(clock=wall, cpu_clock=cpu)
    t.enable()
    with t.span("root", job="demo"):
        with t.span("child.a"):
            wall.tick(1.0)
            cpu.tick(0.75)
        with t.span("child.a"):
            wall.tick(2.0)
            cpu.tick(1.5)
        with t.span("child.b") as s:
            wall.tick(0.5)
            s.set("rows", 7)
        wall.tick(0.5)
    return t


class TestSpanCore:
    def test_nested_spans_and_durations(self):
        t = _traced_telemetry()
        roots = t.finished_spans()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert root.attrs == {"job": "demo"}
        assert root.duration == pytest.approx(4.0)
        assert [c.name for c in root.children] == [
            "child.a", "child.a", "child.b"]
        assert root.children[1].duration == pytest.approx(2.0)
        assert root.children[1].cpu_time == pytest.approx(1.5)
        assert root.self_time == pytest.approx(0.5)
        assert root.children[2].attrs == {"rows": 7}

    def test_walk_is_preorder(self):
        t = _traced_telemetry()
        names = [s.name for s in t.finished_spans()[0].walk()]
        assert names == ["root", "child.a", "child.a", "child.b"]

    def test_disabled_span_is_shared_noop(self):
        assert not obs.telemetry_enabled()
        s1 = obs.span("anything", big=1)
        s2 = obs.span("else")
        assert s1 is s2  # shared singleton, no allocation per call
        with s1 as inner:
            inner.set("k", "v")  # must be harmless
        assert obs.get_telemetry().finished_spans() == []

    def test_error_annotated_on_exception(self):
        t = Telemetry()
        t.enable()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (root,) = t.finished_spans()
        assert root.error == "ValueError"
        assert root.end is not None

    def test_enable_disable_reset_cycle(self):
        obs.enable()
        with obs.span("a"):
            pass
        obs.counter("c", 2)
        assert len(obs.get_telemetry().finished_spans()) == 1
        assert obs.get_telemetry().metrics.counter_value("c") == 2
        obs.reset()
        assert obs.get_telemetry().finished_spans() == []
        assert obs.get_telemetry().metrics.counter_value("c") == 0
        obs.disable()
        with obs.span("b"):
            pass
        assert obs.get_telemetry().finished_spans() == []

    def test_spans_from_threads_become_separate_roots(self):
        t = Telemetry()
        t.enable()

        def work(i):
            with t.span("thread.work", i=i):
                pass

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(8)))
        roots = t.finished_spans()
        assert len(roots) == 8
        assert {r.attrs["i"] for r in roots} == set(range(8))


class TestMetricsRegistry:
    def test_counter_thread_safety_under_hammer(self):
        reg = MetricsRegistry()
        n_threads, n_incr = 8, 2000

        def hammer(_):
            for _ in range(n_incr):
                reg.increment("hits")
                reg.observe("latency", 1.0)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
        assert reg.counter_value("hits") == n_threads * n_incr
        snap = reg.snapshot()
        assert snap["histograms"]["latency"]["count"] == n_threads * n_incr

    def test_gauge_and_snapshot(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3.0)
        reg.increment("n", 2.5)
        snap = reg.snapshot()
        assert snap["gauges"]["depth"] == 3.0
        assert snap["counters"]["n"] == 2.5
        assert "depth" in reg.summary() and "n" in reg.summary()

    def test_histogram_summary_quantiles(self):
        h = HistogramSummary()
        for v in range(1, 101):
            h.add(float(v))
        d = h.to_dict()
        assert d["count"] == 100
        assert d["min"] == 1.0 and d["max"] == 100.0
        assert d["mean"] == pytest.approx(50.5)
        assert 45 <= d["p50"] <= 56
        assert d["p95"] >= 90

    def test_histogram_sample_stays_bounded(self):
        from repro.obs.metrics import _HISTOGRAM_SAMPLE_CAP

        h = HistogramSummary()
        for v in range(3 * _HISTOGRAM_SAMPLE_CAP):
            h.add(float(v))
        assert h.count == 3 * _HISTOGRAM_SAMPLE_CAP
        assert len(h.sample) <= _HISTOGRAM_SAMPLE_CAP

    def test_histogram_summary_schema_is_stable(self):
        # external consumers (repro obs --json, perf store snapshots)
        # key off these names: changing them is a breaking change
        h = HistogramSummary()
        h.add(1.0)
        assert set(h.to_dict()) == {
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99"}
        d = h.to_dict()
        assert d["sum"] == 1.0 and d["p99"] == 1.0

    def test_summary_text_reports_p99_and_sum(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("latency", float(v))
        text = reg.summary()
        assert "p99=" in text and "sum=" in text
        assert "sum=5050" in text

    def test_format_snapshot_handles_partial_snapshots(self):
        from repro.obs import format_snapshot

        # a trace's snapshot may lack any of the sections
        assert "counters:" in format_snapshot({"counters": {"a": 1.0}})
        assert format_snapshot({}) == "(no metrics recorded)"

    def test_module_helpers_noop_when_disabled(self):
        obs.counter("x")
        obs.gauge("y", 1.0)
        obs.observe("z", 2.0)
        assert len(obs.get_telemetry().metrics) == 0


class TestExporters:
    def test_chrome_trace_is_valid_trace_event_json(self, tmp_path):
        t = _traced_telemetry()
        path = obs.write_chrome_trace(t, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == 4
        for ev in events:
            assert ev["ph"] == "X"
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
            assert ev["pid"] == 1 and "tid" in ev and ev["cat"] == "repro"
        # microsecond scaling: the 2s child must be 2e6 us
        two_sec = [e for e in events if e["dur"] == pytest.approx(2e6)]
        assert len(two_sec) == 1 and two_sec[0]["name"] == "child.a"

    def test_chrome_trace_round_trip(self, tmp_path):
        t = _traced_telemetry()
        t.metrics.increment("reads", 3)
        with pytest.raises(KeyError):
            with t.span("failing"):
                raise KeyError("boom")
        path = obs.write_chrome_trace(t, tmp_path / "trace.json")
        roots, metrics = obs.read_chrome_trace(path)
        assert metrics["counters"] == {"reads": 3.0}
        root, failing = roots
        assert [s.name for s in root.walk()] == [
            "root", "child.a", "child.a", "child.b"]
        assert root.duration == pytest.approx(4.0)
        assert root.attrs == {"job": "demo"}
        assert root.children[2].attrs == {"rows": 7}
        assert root.children[1].cpu_time == pytest.approx(1.5, abs=1e-5)
        assert root.error is None
        assert failing.error == "KeyError" and failing.attrs == {}

    def test_summarize_spans_table(self):
        t = _traced_telemetry()
        table = obs.summarize_spans(t)
        lines = table.splitlines()
        assert lines[0].startswith("span")
        # aggregated: child.a appears once with 2 calls and 3s total
        (row,) = [ln for ln in lines if ln.startswith("child.a")]
        cells = row.split()
        assert cells[1] == "2"
        assert float(cells[2]) == pytest.approx(3.0)
        assert "4 spans total" in lines[-1]


class TestNoOpOverhead:
    def test_disabled_span_overhead_under_5_percent_of_groupby(self):
        """The <5% guard: cost of the disabled-telemetry fast path for
        all spans a groupby triggers must be well under 5% of the
        groupby's own runtime."""
        from repro.frame import DataFrame

        df = DataFrame({
            "k": [i % 8 for i in range(2000)],
            "v": [float(i) for i in range(2000)],
        })

        def op():
            return df.groupby("k").agg("mean")

        op()  # warm
        n_op = 20
        best_op = min(
            (lambda t0=time.perf_counter(): (op(), time.perf_counter() - t0))()[1]
            for _ in range(n_op)
        )

        # groupby triggers 2 span sites (partition is cached after the
        # first call; agg once per call) — budget generously for 10.
        assert not obs.telemetry_enabled()
        n_span = 10000
        t0 = time.perf_counter()
        for _ in range(n_span):
            with obs.span("frame.groupby.agg", groups=8, columns=1):
                pass
        per_span = (time.perf_counter() - t0) / n_span
        assert per_span * 10 < 0.05 * best_op, (
            f"disabled span costs {per_span * 1e9:.0f}ns; 10 of them are "
            f">5% of a {best_op * 1e6:.0f}us groupby")

    def test_disabled_counter_is_cheap(self):
        n = 100000
        t0 = time.perf_counter()
        for _ in range(n):
            obs.counter("x")
        per_call = (time.perf_counter() - t0) / n
        assert per_call < 5e-6  # generous CI bound; typically ~100ns


class TestIngestObservability:
    def test_ingest_emits_span_tree_and_stage_timings(self, tmp_path):
        from repro.caliper import write_cali_json
        from repro.ingest import load_ensemble
        from repro.workloads import QUARTZ, generate_rajaperf_profile

        paths = [
            write_cali_json(
                generate_rajaperf_profile(
                    QUARTZ, 1048576, kernels=["Stream_DOT"], seed=i,
                    metadata={"rep": i}),
                tmp_path / f"p{i}.json")
            for i in range(3)
        ]
        obs.enable()
        tk, report = load_ensemble(paths, on_error="collect")
        obs.disable()

        (root,) = obs.get_telemetry().finished_spans()
        assert root.name == "ingest.load_ensemble"
        assert root.attrs["profiles"] == 3
        assert root.attrs["loaded"] == 3
        names = {s.name for s in root.walk()}
        assert {"ingest.profile", "ingest.read", "ingest.validate",
                "ingest.build", "ingest.compose"} <= names
        metrics = obs.get_telemetry().metrics
        assert metrics.counter_value("ingest.profiles.loaded") == 3

        assert set(report.stage_seconds) == {
            "read", "validate", "build", "compose"}
        assert all(v >= 0 for v in report.stage_seconds.values())
        assert "stages:" in report.summary()

    def test_quarantine_is_logged(self, tmp_path, caplog):
        from repro.ingest import load_ensemble

        (tmp_path / "bad.json").write_text("{broken")
        (tmp_path / "p0.json").write_text("junk")
        with caplog.at_level(logging.WARNING, logger="repro.ingest"):
            tk, report = load_ensemble(
                sorted(tmp_path.glob("*.json")), on_error="collect")
        assert tk is None
        quarantine_logs = [r for r in caplog.records
                           if "quarantined profile" in r.message]
        assert len(quarantine_logs) == 2
        assert all(r.name == "repro.ingest" for r in quarantine_logs)

    def test_retry_is_logged(self, tmp_path, caplog, monkeypatch):
        from repro.ingest import load_ensemble, pipeline

        target = tmp_path / "p.json"
        target.write_text("{}")
        attempts = []
        real_read = pipeline._read_text

        def flaky(path):
            attempts.append(path)
            if len(attempts) == 1:
                raise OSError("transient")
            return real_read(path)

        monkeypatch.setattr(pipeline, "_read_text", flaky)
        with caplog.at_level(logging.WARNING, logger="repro.ingest"):
            tk, report = load_ensemble([target], on_error="collect",
                                       sleep=lambda _: None)
        assert any("retrying" in r.message for r in caplog.records)

    def test_configure_logging_idempotent(self):
        logger1 = obs.configure_logging("debug")
        n_handlers = len(logger1.handlers)
        logger2 = obs.configure_logging("warning")
        assert logger2 is logger1
        assert len(logger2.handlers) == n_handlers
        assert logger2.level == logging.WARNING
        with pytest.raises(ValueError):
            obs.configure_logging("loud")

    def test_configure_logging_follows_current_stderr(self, monkeypatch):
        """A second call without ``stream=`` writes to the ``sys.stderr``
        of that call, not the one bound at the first call."""
        import io
        import sys

        obs.configure_logging("info")
        fresh = io.StringIO()
        monkeypatch.setattr(sys, "stderr", fresh)
        try:
            obs.configure_logging("info")
            logging.getLogger("repro.ingest").info("hello from ingest")
        finally:
            logging.getLogger("repro").handlers.clear()
        assert "hello from ingest" in fresh.getvalue()


class TestToThicket:
    def test_spans_become_queryable_statable_thicket(self):
        from repro.core import stats
        from repro.query.dialect import parse_string_dialect

        wall, cpu = FakeClock(), FakeClock()
        t = Telemetry(clock=wall, cpu_clock=cpu)
        t.enable()
        for run in range(3):  # three "runs" → three profiles
            with t.span("main", run=run):
                with t.span("solve"):
                    with t.span("kernel"):
                        wall.tick(1.0 + run)
                        cpu.tick(1.0)
                with t.span("io"):
                    wall.tick(0.25)

        tk = obs.to_thicket(t)
        assert len(tk.profile) == 3
        assert {n.frame.name for n in tk.graph.traverse()} == {
            "main", "solve", "kernel", "io"}
        assert tk.default_metric == "time (exc)"
        assert tk.provenance["trace"]["runs"] == 3

        # stats machinery
        created = stats.mean(tk, ["time (inc)"])
        col = dict(zip(
            [n.frame.name for n in tk.statsframe.index.values],
            tk.statsframe.column(created[0])))
        assert col["kernel"] == pytest.approx((1.0 + 2.0 + 3.0) / 3)

        # query machinery
        out = tk.query(parse_string_dialect(
            'MATCH ("*", p) WHERE p."name" = "solve"'))
        assert {n.frame.name for n in out.graph.traverse()} == {"solve"}

        # viz machinery
        tree = tk.tree(metric_column="time (inc)")
        assert "main" in tree and "kernel" in tree

    def test_to_thicket_from_both_file_formats(self, tmp_path):
        # the Chrome trace is the one trace file format
        t = _traced_telemetry()
        t.metrics.increment("reads", 1)
        path = obs.write_chrome_trace(t, tmp_path / "t.json")
        tk = obs.to_thicket(path)
        assert len(tk.profile) == 1
        names = {n.frame.name for n in tk.graph.traverse()}
        assert names == {"root", "child.a", "child.b"}
        # two child.a spans aggregate into one node with calls=2
        rows = {t_[0].frame.name: i
                for i, t_ in enumerate(tk.dataframe.index.values)}
        assert tk.dataframe.column("calls")[rows["child.a"]] == 2.0
        assert tk.dataframe.column("time (inc)")[
            rows["child.a"]] == pytest.approx(3.0)
        assert tk.provenance["trace_metrics"]["counters"] == {
            "reads": 1.0}

    def test_empty_trace_raises_composition_error(self, tmp_path):
        from repro.errors import CompositionError

        p = tmp_path / "empty.json"
        p.write_text("")
        with pytest.raises(CompositionError):
            obs.to_thicket(p)

    def test_traced_ingest_round_trips_through_thicket(self, tmp_path):
        """Acceptance scenario: trace a campaign ingest, load the trace
        back as a Thicket, and drive the query API over it."""
        from repro.caliper import write_cali_json
        from repro.ingest import load_ensemble
        from repro.query.dialect import parse_string_dialect
        from repro.workloads import QUARTZ, generate_rajaperf_profile

        paths = [
            write_cali_json(
                generate_rajaperf_profile(
                    QUARTZ, 1048576, kernels=["Stream_DOT"], seed=i,
                    metadata={"rep": i}),
                tmp_path / f"p{i}.json")
            for i in range(4)
        ]
        obs.enable()
        load_ensemble(paths)
        obs.disable()
        trace = obs.write_chrome_trace(
            obs.get_telemetry(), tmp_path / "trace.json")

        tk = obs.to_thicket(trace)
        out = tk.query(parse_string_dialect(
            'MATCH ("*", p) WHERE p."name" = "ingest.profile"'))
        assert len(out.graph) >= 1
        rows = {t_[0].frame.name: i
                for i, t_ in enumerate(tk.dataframe.index.values)}
        assert tk.dataframe.column("calls")[rows["ingest.profile"]] == 4.0


class TestTelemetryThreadSafety:
    """Satellite (PR 7): enable()/disable() must be safe to flip while
    other threads are recording spans, and a long-lived daemon must be
    able to bound the finished-span buffer."""

    def test_enable_disable_hammer_while_recording(self):
        """8 threads record spans while the main thread flips the
        enabled flag; no crash, no torn state, and every span that was
        recorded is structurally complete."""
        t = Telemetry()
        stop = time.monotonic() + 0.5
        errors: list[BaseException] = []

        def recorder(i):
            try:
                while time.monotonic() < stop:
                    with t.span("hammer.span"):
                        t.metrics.increment("hammer.count")
            except BaseException as e:  # noqa: BLE001 - the assertion
                errors.append(e)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(recorder, i) for i in range(8)]
            while time.monotonic() < stop:
                t.enable()
                t.disable()
            for f in futures:
                f.result()
        assert errors == []
        for span in t.finished_spans():
            assert span.name == "hammer.span"
            assert span.end is not None
            assert span.end >= span.start

    def test_epoch_stamped_once_per_transition(self):
        clock = FakeClock()
        t = Telemetry(clock=clock)
        t.enable()
        first = t.epoch
        t.enable()  # idempotent: re-enabling must not restamp
        assert t.epoch == first
        t.disable()
        clock.tick(5.0)
        t.enable()
        assert t.epoch == first + 5.0

    def test_span_cap_bounds_buffer_and_counts_drops(self):
        t = Telemetry()
        t.enable()
        t.set_span_cap(10)
        for _ in range(25):
            with t.span("capped.span"):
                pass
        assert len(t.finished_spans()) == 10
        assert t.dropped_spans == 15
        t.reset()
        assert t.dropped_spans == 0

    def test_span_cap_trims_existing_backlog(self):
        t = Telemetry()
        t.enable()
        for _ in range(8):
            with t.span("backlog.span"):
                pass
        t.set_span_cap(3)
        assert len(t.finished_spans()) == 3
        assert t.dropped_spans == 5

    def test_span_cap_validation(self):
        t = Telemetry()
        with pytest.raises(ValueError):
            t.set_span_cap(0)
        t.set_span_cap(None)  # None restores unbounded
