"""Tests for the perf sentinel stack (``repro.perf`` + obs deepening).

Covers: the sampling profiler (deterministic single samples, exporter
output, behaviour under a thread storm combined with a supervised
multiprocess ingest), the append-only checksummed run store
(round-trip, tamper detection, retention), the regression sentinel's
verdict logic on synthetic span trees with scripted clocks, and the
``repro perf`` CLI loop on traced ``repro ingest`` runs, including the
staged ``inject_slowdown`` regression that must exit with code 6.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.obs as obs
from repro.errors import CorruptStoreError, PersistenceError
from repro.obs import SamplingProfiler, Telemetry, collapsed_stacks
from repro.obs.sampler import StackSample
from repro.perf import (
    DEFAULT_POLICY,
    PerfPolicy,
    PerfStore,
    check_regression,
    check_store,
)


@pytest.fixture(autouse=True)
def _clean_global_telemetry():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class FakeClock:
    """Deterministic monotonic clock advancing only on tick()."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def _spans_run(spec, root_name: str = "root", attrs: dict | None = None):
    """One finished root span with children of scripted durations."""
    wall, cpu = FakeClock(), FakeClock()
    t = Telemetry(clock=wall, cpu_clock=cpu)
    t.enable()
    with t.span(root_name, **(attrs or {})):
        for name, dur in spec:
            with t.span(name):
                wall.tick(dur)
                cpu.tick(dur)
    return t.finished_spans()[0]


def _trace_file(path, spec) -> str:
    """Write one scripted root span as a Chrome trace file."""
    obs.write_chrome_trace([_spans_run(spec)], path)
    return str(path)


# ----------------------------------------------------------------------
# sampling profiler
# ----------------------------------------------------------------------

class TestSampler:
    def test_sample_once_captures_other_threads_not_itself(self):
        stop = threading.Event()

        def camp_here():
            stop.wait(10.0)

        worker = threading.Thread(target=camp_here, name="campsite")
        worker.start()
        try:
            p = SamplingProfiler(hz=100)
            n = p.sample_once()
            assert n >= 1
            samples = p.samples()
            names = {s.thread_name for s in samples}
            assert "campsite" in names
            # it never records the sampler's own thread (none is running
            # here, so no thread may claim the sampler name either)
            assert "repro-obs-sampler" not in names
            camp = next(s for s in samples if s.thread_name == "campsite")
            joined = [";".join(stack) for stack in camp.stacks]
            assert any("camp_here" in s for s in joined)
        finally:
            stop.set()
            worker.join()

    def test_start_stop_idempotent_and_context_manager(self):
        p = SamplingProfiler(hz=500)
        assert not p.running
        with p:
            assert p.running
            p.start()  # second start is a no-op
            assert p.running
            deadline = time.perf_counter() + 5.0
            while p.total_samples == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
        assert not p.running
        p.stop()  # second stop is a no-op
        assert p.total_samples > 0

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError):
            SamplingProfiler(hz=-5)

    def test_collapsed_round_trip(self):
        """The samples come back out as one `thread;...;frame N` line
        per stack."""
        s = StackSample(tid=1, thread_name="main")
        s.add(("a.py:f", "a.py:g"))
        s.add(("a.py:f", "a.py:g"))
        s.add(("a.py:f", "b.py:h"))
        s.add(())  # sampled with no Python frames: the thread alone
        odd = StackSample(tid=2, thread_name="x;y")
        odd.add(("c.py:k",))
        text = collapsed_stacks([s, odd])
        assert text.endswith("\n")
        # `thread;...;frame N`, sorted; ';' in a thread name is escaped
        assert text.splitlines() == [
            "thread (main) 1",
            "thread (main);a.py:f;a.py:g 2",
            "thread (main);a.py:f;b.py:h 1",
            "thread (x,y);c.py:k 1",
        ]
        assert collapsed_stacks([]) == ""

    def test_write_exporters_and_read_back(self, tmp_path):
        """The file on disk holds exactly what the exporter returns."""
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait, args=(10.0,))
        worker.start()
        try:
            p = SamplingProfiler(hz=100)
            assert p.sample_once() >= 1
        finally:
            stop.set()
            worker.join()
        collapsed_path = p.write_collapsed(tmp_path / "prof.collapsed")
        text = collapsed_path.read_text()
        assert text == p.collapsed()
        lines = text.splitlines()
        assert lines
        for line in lines:
            path, _, count = line.rpartition(" ")
            assert path.startswith("thread (") and count.isdigit()

    def test_sampler_under_thread_storm_and_supervised_ingest(
            self, tmp_path):
        """Sampling while 8 CPU threads spin and a jobs=2 supervised
        ingest runs must neither deadlock nor attribute frames from the
        worker *processes* to this process's threads."""
        from repro.ingest import load_ensemble
        from repro.resilience import ResiliencePolicy
        from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

        paths = write_raja_campaign(tmp_path, campaign=RAJA_CAMPAIGN[:1],
                                    scale=0.05)
        stop = threading.Event()

        def spin():
            while not stop.wait(0.0005):
                sum(range(200))

        threads = [threading.Thread(target=spin, name=f"storm-{i}")
                   for i in range(8)]
        for th in threads:
            th.start()
        profiler = SamplingProfiler(hz=200)
        try:
            with profiler:
                tk, report = load_ensemble(
                    paths, on_error="collect",
                    policy=ResiliencePolicy(jobs=2))
        finally:
            stop.set()
            for th in threads:
                th.join(timeout=10.0)
        assert tk is not None and report.n_loaded == len(paths)
        assert profiler.total_samples > 0
        # only threads of THIS process can appear: worker processes are
        # invisible to sys._current_frames, so nothing may carry a
        # multiprocessing worker's main-thread stack
        own = {s.thread_name for s in profiler.samples()}
        assert any(name.startswith("storm-") for name in own)
        for stacks in (s.stacks for s in profiler.samples()):
            for stack in stacks:
                assert len(stack) <= 200  # depth cap respected


# ----------------------------------------------------------------------
# the run store
# ----------------------------------------------------------------------

def _two_run_store(tmp_path, spec_a, spec_b, clock=None):
    store = PerfStore(tmp_path / "hist", clock=clock or (lambda: 1000.0))
    store.record([_spans_run(spec_a)], label="baseline")
    store.record([_spans_run(spec_b)], label="baseline")
    return store


class TestPerfStore:
    def test_record_and_load_round_trip(self, tmp_path):
        store = PerfStore(tmp_path / "hist", clock=lambda: 1234.5)
        root = _spans_run([("work.ingest", 1.0), ("work.query", 0.5)])
        info = store.record([root], meta={"machine": "testbox"},
                            label="seed")
        assert info.run_id == "run-000001"
        assert info.meta["timestamp"] == 1234.5
        assert info.meta["machine"] == "testbox"  # caller meta wins
        assert info.meta["label"] == "seed"
        roots, meta, metrics = store.load_run("run-000001")
        assert [s.name for s in roots[0].walk()] == [
            "root", "work.ingest", "work.query"]
        assert roots[0].children[0].duration == pytest.approx(1.0)
        assert meta["spans"] == 3

    def test_sequence_ids_and_len(self, tmp_path):
        store = _two_run_store(tmp_path, [("a", 1.0)], [("a", 1.1)])
        assert len(store) == 2
        assert [i.run_id for i in store.runs()] == [
            "run-000001", "run-000002"]
        info = store.record([_spans_run([("a", 1.2)])])
        assert info.run_id == "run-000003"

    def test_refuses_empty_run(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        with pytest.raises(PersistenceError):
            store.record([])

    def test_tampered_run_raises_corrupt_store(self, tmp_path):
        store = _two_run_store(tmp_path, [("a", 1.0)], [("a", 1.1)])
        path = store.runs_dir / "run-000001.json"
        doc = json.loads(path.read_text())
        doc["payload"]["meta"]["machine"] = "imposter"
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(CorruptStoreError, match="checksum"):
            store.load_run("run-000001")
        with pytest.raises(CorruptStoreError):
            store.runs()

    def test_truncated_run_raises_corrupt_store(self, tmp_path):
        store = _two_run_store(tmp_path, [("a", 1.0)], [("a", 1.1)])
        path = store.runs_dir / "run-000002.json"
        path.write_text(path.read_text()[:40])
        with pytest.raises(CorruptStoreError):
            store.load_run("run-000002")

    def test_missing_run_raises_persistence_error(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        with pytest.raises(PersistenceError, match="no such perf run"):
            store.load_run("run-000042")

    def test_prune_keeps_newest(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        for i in range(5):
            store.record([_spans_run([("a", 1.0 + i)])])
        removed = store.prune(keep=2)
        assert removed == ["run-000001", "run-000002", "run-000003"]
        assert [i.run_id for i in store.runs()] == [
            "run-000004", "run-000005"]
        # sequence keeps increasing after pruning
        assert store.record([_spans_run([("a", 9.0)])]).run_id \
            == "run-000006"

    def test_load_history_composes_ensemble_with_metadata(self, tmp_path):
        store = _two_run_store(tmp_path, [("work.a", 1.0)],
                               [("work.a", 1.2)])
        tk = store.load_history()
        assert tk.profile == ["run-000001/0", "run-000002/0"]
        assert set(tk.metadata.column("run.id")) == {
            "run-000001", "run-000002"}
        assert all(lbl == "baseline"
                   for lbl in tk.metadata.column("run.label"))
        names = {n.frame.name for n in tk.graph}
        assert names == {"root", "work.a"}
        assert tk.provenance["perf_store"]["runs"] == [
            "run-000001", "run-000002"]

    def test_load_history_limit_and_exclude(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        for i in range(4):
            store.record([_spans_run([("a", 1.0)])])
        assert store.load_history(limit=2).profile == [
            "run-000003/0", "run-000004/0"]
        assert store.load_history(exclude=["run-000004"]).profile == [
            "run-000001/0", "run-000002/0", "run-000003/0"]
        with pytest.raises(PersistenceError):
            store.load_history(exclude=[f"run-{i:06d}"
                                        for i in range(1, 5)])

    def test_span_attrs_surface_as_history_metadata(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        root = _spans_run([("a", 1.0)], attrs={"workload": "demo"})
        store.record([root])
        tk = store.load_history()
        assert list(tk.metadata.column("span.workload")) == ["demo"]


# ----------------------------------------------------------------------
# the sentinel
# ----------------------------------------------------------------------

def _thicket_of(*runs):
    return obs.to_thicket(list(runs))


class TestPolicy:
    def test_defaults_frozen_and_validated(self):
        assert DEFAULT_POLICY.metric == "time (inc)"
        with pytest.raises(Exception):
            DEFAULT_POLICY.alpha = 0.5  # frozen dataclass
        for bad in (dict(alpha=0), dict(alpha=1.5),
                    dict(min_relative_change=0),
                    dict(min_seconds=-1), dict(min_samples=0)):
            with pytest.raises(ValueError):
                PerfPolicy(**bad)

    def test_with_overrides_ignores_none(self):
        p = DEFAULT_POLICY.with_overrides(alpha=None, min_samples=2)
        assert p.alpha == DEFAULT_POLICY.alpha
        assert p.min_samples == 2
        assert DEFAULT_POLICY.min_samples == 1  # original untouched


class TestSentinel:
    POLICY = PerfPolicy(min_relative_change=0.5, min_seconds=0.01)

    def test_regression_flagged_and_named(self):
        baseline = _thicket_of(
            _spans_run([("work.fast", 1.0), ("work.steady", 1.0)]),
            _spans_run([("work.fast", 1.1), ("work.steady", 1.0)]))
        candidate = _thicket_of(
            _spans_run([("work.fast", 3.0), ("work.steady", 1.0)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert not v.ok
        flagged = [r["node"] for r in v.regressions]
        assert "work.fast" in flagged
        assert "work.steady" not in flagged
        worst = v.regressions[0]
        assert worst["relative_change"] > 1.0
        assert v.baseline_runs == 2 and v.candidate_runs == 1
        assert "REGRESSION" in v.summary()
        assert "work.fast" in v.summary()

    def test_clean_candidate_passes(self):
        baseline = _thicket_of(_spans_run([("work.a", 1.0)]),
                               _spans_run([("work.a", 1.05)]))
        candidate = _thicket_of(_spans_run([("work.a", 1.02)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert v.ok and not v.regressions
        assert "PASS" in v.summary()

    def test_improvement_reported_not_failing(self):
        baseline = _thicket_of(_spans_run([("work.a", 2.0)]),
                               _spans_run([("work.a", 2.1)]))
        candidate = _thicket_of(_spans_run([("work.a", 0.5)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert v.ok
        assert [r["node"] for r in v.improvements].count("work.a") == 1

    def test_new_and_vanished_nodes(self):
        baseline = _thicket_of(_spans_run([("work.a", 1.0),
                                           ("work.gone", 1.0)]))
        candidate = _thicket_of(_spans_run([("work.a", 1.0),
                                            ("work.born", 1.0)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert v.new_nodes == ["work.born"]
        assert v.vanished_nodes == ["work.gone"]

    def test_min_seconds_floor_suppresses_noise_nodes(self):
        baseline = _thicket_of(_spans_run([("tiny", 0.001),
                                           ("big", 1.0)]))
        candidate = _thicket_of(_spans_run([("tiny", 0.004),
                                            ("big", 1.0)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert v.ok  # tiny quadrupled but is under the 10 ms floor

    def test_node_growing_past_the_floor_is_flagged(self):
        # the floor drops nodes small on both sides, not a node whose
        # baseline was small: 8 ms -> 508 ms is a regression
        baseline = _thicket_of(_spans_run([("small", 0.008),
                                           ("big", 1.0)]),
                               _spans_run([("small", 0.009),
                                           ("big", 1.0)]))
        candidate = _thicket_of(_spans_run([("small", 0.508),
                                            ("big", 1.0)]))
        v = check_regression(baseline, candidate, self.POLICY)
        assert [r["node"] for r in v.regressions] == ["small"]
        # and a node that shrinks under the floor is still an improvement
        v = check_regression(candidate, baseline, self.POLICY)
        assert v.ok and [r["node"] for r in v.improvements] == ["small"]

    def test_min_samples_gate(self):
        baseline = _thicket_of(_spans_run([("work.a", 1.0)]))
        candidate = _thicket_of(_spans_run([("work.a", 5.0)]))
        policy = PerfPolicy(min_relative_change=0.5, min_seconds=0.01,
                            min_samples=2)
        assert check_regression(baseline, candidate, policy).ok
        assert not check_regression(
            baseline, candidate, self.POLICY).ok

    def test_verdict_to_dict_is_json_ready(self):
        baseline = _thicket_of(_spans_run([("work.a", 1.0)]))
        candidate = _thicket_of(_spans_run([("work.a", 4.0)]))
        v = check_regression(baseline, candidate, self.POLICY)
        doc = json.loads(json.dumps(v.to_dict(), sort_keys=True))
        assert doc["ok"] is False
        assert doc["policy"]["metric"] == "time (inc)"
        assert "work.a" in [r["node"] for r in doc["regressions"]]

    def test_check_store_with_run_id_candidate(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        store.record([_spans_run([("work.a", 1.0)])])
        store.record([_spans_run([("work.a", 1.05)])])
        store.record([_spans_run([("work.a", 4.0)])])  # the bad run
        v = check_store(store, "run-000003", self.POLICY)
        # the candidate run is excluded from its own baseline
        assert v.baseline_runs == 2
        assert not v.ok

    def test_check_store_trace_file_named_like_a_run_id(self, tmp_path):
        store = PerfStore(tmp_path / "hist")
        store.record([_spans_run([("work.a", 1.0)])])
        store.record([_spans_run([("work.a", 1.05)])])
        # only the exact run-NNNNNN form names a stored run
        trace = _trace_file(tmp_path / "run-1.json", [("work.a", 4.0)])
        v = check_store(store, trace, self.POLICY)
        assert v.baseline_runs == 2 and v.candidate_runs == 1
        assert "work.a" in [r["node"] for r in v.regressions]


# ----------------------------------------------------------------------
# CLI loop on traces
# ----------------------------------------------------------------------

class TestPerfWorkflow:
    @pytest.fixture
    def campaign(self, tmp_path):
        from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

        profile_dir = tmp_path / "profiles"
        write_raja_campaign(profile_dir, campaign=RAJA_CAMPAIGN[:1],
                            scale=0.04)
        return profile_dir

    @staticmethod
    def _ingest_traces(campaign, out_dir, n, tag) -> list[str]:
        """Trace *n* ``repro ingest`` runs of *campaign*."""
        from repro.cli import main

        paths = []
        for i in range(n):
            path = out_dir / f"{tag}-{i}.json"
            assert main(["--trace", str(path), "ingest", str(campaign)]) == 0
            paths.append(str(path))
        return paths

    def test_cli_record_check_inject_slowdown_cycle(self, tmp_path,
                                                    campaign):
        from repro.cli import EXIT_PERF_REGRESSION, main
        from repro.workloads import inject_slowdown

        store = ["--store", str(tmp_path / "hist")]
        verdict_path = tmp_path / "verdict.json"
        out = ["--out", str(verdict_path)]
        base = self._ingest_traces(campaign, tmp_path, 2, "base")
        assert main(["perf", "record", *store, *base]) == 0
        clean = self._ingest_traces(campaign, tmp_path, 3, "clean")
        assert main(["perf", "check", *store, *clean, *out]) == 0
        doc = json.loads(verdict_path.read_text())
        assert doc["ok"] is True
        assert doc["baseline_runs"] == 2 and doc["candidate_runs"] == 3

        inject_slowdown(sorted(campaign.glob("*.json"))[0], seconds=0.5)
        slow = self._ingest_traces(campaign, tmp_path, 3, "slow")
        rc = main(["perf", "check", *store, *slow, *out])
        assert rc == EXIT_PERF_REGRESSION == 6
        doc = json.loads(verdict_path.read_text())
        assert doc["ok"] is False
        assert any(r["node"] == "ingest.profile"
                   for r in doc["regressions"])

    def test_cli_history_and_prune(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "hist")
        traces = [_trace_file(tmp_path / f"t{i}.json", [("work.a", 1.0)])
                  for i in range(2)]
        assert main(["perf", "record", "--store", store, *traces]) == 0
        capsys.readouterr()  # drop the record confirmations
        assert main(["perf", "history", "--store", store,
                     "--prune", "1", "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in runs] == ["run-000002"]

    def test_cli_check_empty_store_is_actionable(self, tmp_path, capsys):
        from repro.cli import main

        trace = _trace_file(tmp_path / "t.json", [("work.a", 1.0)])
        rc = main(["perf", "check", "--store", str(tmp_path / "none"),
                   trace])
        assert rc == 1
        assert "record a baseline" in capsys.readouterr().err

    def test_cli_unreadable_trace_file_is_named(self, tmp_path):
        from repro.cli import main

        missing = str(tmp_path / "absent.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        for path, message in ((missing, "no such trace file"),
                              (str(garbled), "not a trace file")):
            for argv in (["perf", "record", "--store",
                          str(tmp_path / "h"), path],
                         ["obs", path]):
                with pytest.raises(SystemExit, match=message):
                    main(argv)

    def test_cli_trace_without_spans_exits_1(self, tmp_path):
        """A trace with no completed spans ends `repro obs`, `perf
        record` and `perf check` with one line and exit 1, and `perf
        record` stores nothing."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.cli import main

        hist = tmp_path / "hist"
        PerfStore(hist).record([_spans_run([("work.a", 1.0)])])
        no_events = tmp_path / "no-events.json"
        no_events.write_text('{"traceEvents": []}')
        zero_bytes = tmp_path / "zero-bytes.json"
        zero_bytes.write_text("")
        for path in (str(no_events), str(zero_bytes)):
            for argv in (["obs", path],
                         ["perf", "record", "--store", str(hist), path],
                         ["perf", "check", "--store", str(hist), path]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                # a string exit code: Python prints it and exits 1
                assert exc.value.code == f"{path}: no completed spans"
        assert [i.run_id for i in PerfStore(hist).runs()] == ["run-000001"]

        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "perf", "record", "--store",
             str(hist), str(no_events)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr == f"{no_events}: no completed spans\n"
        assert len(PerfStore(hist).runs()) == 1

    def test_cli_compare_stored_runs(self, tmp_path, capsys):
        from repro.cli import main

        store = PerfStore(tmp_path / "hist")
        store.record([_spans_run([("work.a", 1.0)])])
        store.record([_spans_run([("work.a", 1.02)])])
        store.record([_spans_run([("work.a", 4.0)])])
        rc = main(["perf", "check", "--store", str(tmp_path / "hist"),
                   "run-000003", "--json"])
        assert rc == 6
        doc = json.loads(capsys.readouterr().out)
        assert doc["baseline_runs"] == 2  # run-000003 judged, not pooled
        assert "work.a" in [r["node"] for r in doc["regressions"]]

    def test_cli_profile_flag_writes_flamegraph(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

        profile_dir = tmp_path / "profiles"
        write_raja_campaign(profile_dir, campaign=RAJA_CAMPAIGN[:1],
                            scale=0.05)
        out = tmp_path / "prof.collapsed"
        rc = main(["--profile", "200", "--profile-out", str(out),
                   "summarize", str(profile_dir)])
        assert rc == 0
        assert out.exists()
        err = capsys.readouterr().err
        assert "profile written to" in err

    def test_cli_profile_out_is_collapsed_whatever_the_suffix(
            self, tmp_path, capsys):
        import re

        from repro.cli import main
        from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

        profile_dir = tmp_path / "profiles"
        write_raja_campaign(profile_dir, campaign=RAJA_CAMPAIGN[:1],
                            scale=0.05)
        out = tmp_path / "prof.json"
        rc = main(["--profile", "1000", "--profile-out", str(out),
                   "summarize", str(profile_dir)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines
        assert all(re.fullmatch(r".+ [0-9]+", line) for line in lines)
        assert "flamegraph.pl" in capsys.readouterr().err

    def test_sampler_overhead_fraction_under_10_percent(self, tmp_path):
        """At 100 Hz the sampler's own work must stay a small fraction
        of the measured program's runtime."""
        from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign
        from repro.workloads.campaign import load_campaign

        paths = write_raja_campaign(tmp_path, campaign=RAJA_CAMPAIGN[:1],
                                    scale=0.1)
        assert paths
        profiler = SamplingProfiler(hz=100)
        t0 = time.perf_counter()
        with profiler:
            for _ in range(3):
                tk, _report = load_campaign(tmp_path)
                tk.tree(metric_column=tk.default_metric)
        elapsed = time.perf_counter() - t0
        assert profiler.total_samples > 0
        assert profiler.overhead_seconds < 0.10 * elapsed
