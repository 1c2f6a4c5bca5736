"""Supervised parallel execution: pool, breaker, policy, signals, chaos.

Covers the ``repro.resilience`` subsystem end to end: policy
validation and deterministic jittered backoff, the circuit breaker's
full closed → open → half-open state machine under an injected clock,
deadline enforcement and heartbeat liveness kills against real worker
processes, every ``ReproError`` class round-tripping as a record (JSON,
worker pipe, checkpoint journal), parallel-vs-serial byte-identity of
composed thickets, the
SIGINT/SIGTERM signal-window guard around checkpoint journals, and a
200-profile chaos acceptance run mixing hangs, worker crashes, and
corrupt payloads.
"""

import dataclasses
import inspect
import json
import os
import random
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors as errors_module
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
    ReaderError,
    ReproError,
    SchemaError,
    TaskTimeoutError,
    WorkerCrashError,
    from_record,
)
from repro.ingest import CheckpointJournal, load_ensemble
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    SignalGuard,
    SupervisedExecutor,
    call_with_retries,
)
from repro.resilience.executor import _WORKER_STATE
from repro.workloads import (
    EXECUTION_FAULT_MODES,
    corrupt_campaign,
    inject_hang,
    inject_slow_io,
    inject_worker_crash,
    write_marbl_campaign,
)


class FakeClock:
    """Deterministic monotonic clock advanced by hand (or by sleep)."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


# ----------------------------------------------------------------------
# module-level task functions (pool workers run them via fork)
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _hang_task(x):
    time.sleep(30)
    return x  # pragma: no cover - killed long before


def _crash_task(x):
    os._exit(3)  # pragma: no cover - the exit IS the test


def _stop_heartbeat_task(x):
    """Simulate a wedged worker: stop beating, then block."""
    _WORKER_STATE["stop_heartbeat"].set()
    time.sleep(30)
    return x  # pragma: no cover - killed by the liveness sweep


def _fail_task(x):
    raise ReaderError("doomed", source=str(x))


def _always_transient_task(x):
    err = ReaderError("blip", source=str(x))
    err.transient = True
    raise err


def _flaky_task(counter_path):
    """Fail transiently twice (file-based count survives respawns)."""
    p = Path(counter_path)
    n = int(p.read_text()) if p.exists() else 0
    p.write_text(str(n + 1))  # repro: noqa[RPR003]
    if n < 2:
        err = ReaderError(f"transient glitch {n}", source=counter_path)
        err.transient = True
        raise err
    return n


# ----------------------------------------------------------------------
# ResiliencePolicy
# ----------------------------------------------------------------------

class TestResiliencePolicy:
    def test_defaults_are_serial(self):
        assert not ResiliencePolicy().supervised
        assert ResiliencePolicy().jobs == 1

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 2},
        {"task_timeout": 1.0},
        {"deadline": 5.0},
    ])
    def test_supervision_triggers(self, kwargs):
        assert ResiliencePolicy(**kwargs).supervised

    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
        {"task_timeout": 0.0},
        {"max_retries": -1},
        {"backoff": -0.1},
        {"backoff_jitter": -0.5},
        {"breaker_threshold": -1},
        {"breaker_cooldown": -1.0},
        {"deadline": 0.0},
        {"heartbeat_grace": 0.0},
        {"backoff_jitter": 1.5},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)

    def test_delay_without_jitter_is_pure_exponential(self):
        pol = ResiliencePolicy(backoff=0.05)
        import random
        rng = random.Random(0)
        assert [pol.delay_for(a, rng) for a in range(3)] == \
            [0.05, 0.10, 0.20]

    def test_jitter_is_deterministic_under_seeded_rng(self):
        import random
        pol = ResiliencePolicy(backoff=0.05, backoff_jitter=0.5)
        a = [pol.delay_for(i, random.Random(0)) for i in range(4)]
        b = [pol.delay_for(i, random.Random(0)) for i in range(4)]
        assert a == b
        for attempt, delay in enumerate(a):
            base = 0.05 * 2 ** attempt
            assert base <= delay <= base * 1.5

    def test_replace(self):
        # a copy is validated like a fresh policy
        pol = dataclasses.replace(ResiliencePolicy(), jobs=4,
                                  task_timeout=2.0)
        assert (pol.jobs, pol.task_timeout) == (4, 2.0)
        assert pol.supervised
        with pytest.raises(ValueError):
            dataclasses.replace(pol, jobs=0)


# ----------------------------------------------------------------------
# CircuitBreaker state machine (injected clock; no sleeping)
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        assert not br.record_failure("k")
        assert not br.record_failure("k")
        assert br.record_failure("k")          # third failure trips
        assert br.state("k") == OPEN
        assert not br.allow("k")
        assert br.trips == 1

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=3, clock=FakeClock())
        br.record_failure("k")
        br.record_failure("k")
        br.record_success("k")
        assert not br.record_failure("k")      # count restarted
        assert br.state("k") == CLOSED

    def test_half_open_probe_admitted_after_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        br.record_failure("k")
        assert not br.allow("k")
        clock.advance(9.9)
        assert not br.allow("k")               # still cooling
        clock.advance(0.2)
        assert br.state("k") == HALF_OPEN
        assert br.allow("k")                   # the single probe
        assert not br.allow("k")               # second caller must wait

    def test_half_open_success_closes(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        br.record_failure("k")
        clock.advance(5.0)
        assert br.allow("k")
        br.record_success("k")
        assert br.state("k") == CLOSED
        assert br.allow("k")

    def test_half_open_failure_reopens_full_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        br.record_failure("k")
        clock.advance(5.0)
        assert br.allow("k")                   # probe
        assert br.record_failure("k")          # probe failed: trips again
        assert br.trips == 2
        assert not br.allow("k")
        clock.advance(4.9)
        assert not br.allow("k")               # cooldown restarted in full
        clock.advance(0.2)
        assert br.allow("k")

    def test_keys_are_independent(self):
        br = CircuitBreaker(threshold=1, clock=FakeClock())
        br.record_failure("a")
        assert not br.allow("a")
        assert br.allow("b")

    def test_threshold_zero_disables(self):
        br = CircuitBreaker(threshold=0, clock=FakeClock())
        for _ in range(10):
            br.record_failure("k")
        assert br.allow("k")
        assert br.trips == 0

    def test_on_trip_callback(self):
        tripped = []
        br = CircuitBreaker(threshold=1, clock=FakeClock(),
                            on_trip=tripped.append)
        br.record_failure("k")
        assert tripped == ["k"]


# ----------------------------------------------------------------------
# executor outcome contract (real worker processes) and the one
# in-process retry loop
# ----------------------------------------------------------------------

class TestInlineExecutor:
    """Outcome order, errors and breaker fast-fail through the pool
    (every ``map`` runs there), and :func:`call_with_retries`, the
    serial retry loop ingest uses on the calling process."""

    def test_results_in_input_order(self):
        ex = SupervisedExecutor(ResiliencePolicy(jobs=2))
        outcomes = ex.map(_square, [3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert all(o.ok and o.status == "ok" for o in outcomes)

    def test_key_labels_each_task_from_its_item(self):
        ex = SupervisedExecutor(ResiliencePolicy(jobs=2))
        outcomes = ex.map(_square, [3, 1], key=lambda v: f"item-{v}")
        assert [o.key for o in outcomes] == ["item-3", "item-1"]
        assert [o.key for o in ex.map(_square, [3, 1])] == ["0", "1"]

    def test_call_with_retries_stops_at_a_permanent_error(self):
        calls, delays = [], []

        def fn(x):
            calls.append(x)
            if len(calls) == 1:
                err = ReaderError("blip", source="x")
                err.transient = True
                raise err
            if len(calls) == 2:
                raise SchemaError("bad", source="x")
            raise RuntimeError("not a ReproError")

        policy = ResiliencePolicy(max_retries=5, backoff=0.01)
        with pytest.raises(SchemaError) as ei:
            call_with_retries(fn, "v", policy, random.Random(0),
                              delays.append)
        assert ei.value.attempts == 2 and delays == [0.01]
        with pytest.raises(RuntimeError):  # propagates, never retried
            call_with_retries(fn, "v", policy, random.Random(0),
                              delays.append)
        assert len(calls) == 3 and delays == [0.01]

    def test_retry_budget_exhausted_surfaces_error(self):
        ex = SupervisedExecutor(ResiliencePolicy(jobs=2, max_retries=1,
                                                 backoff=0.0))
        [outcome] = ex.map(_always_transient_task, ["v"])
        assert not outcome.ok
        assert outcome.status == "error" and outcome.attempts == 2
        assert isinstance(outcome.error, ReaderError)
        assert outcome.error.transient

    def test_permanent_error_not_retried(self):
        ex = SupervisedExecutor(ResiliencePolicy(jobs=2, max_retries=5))
        [outcome] = ex.map(_fail_task, ["v"])
        assert outcome.attempts == 1 and not outcome.ok
        assert isinstance(outcome.error, ReaderError)

    def test_breaker_fast_fails_after_threshold(self):
        # one worker, so each failure is recorded before the next
        # task is offered for dispatch
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=1, max_retries=0, breaker_threshold=2,
                             breaker_cooldown=60.0),
            breaker_key=lambda k: "domain")
        outcomes = ex.map(_fail_task, list(range(4)))
        assert [o.status for o in outcomes] == \
            ["error", "error", "breaker_open", "breaker_open"]
        assert isinstance(outcomes[2].error, CircuitOpenError)
        assert ex.breaker.trips == 1


# ----------------------------------------------------------------------
# pool executor (real worker processes; small and fast)
# ----------------------------------------------------------------------

class TestPoolExecutor:
    def test_parallel_map_preserves_order(self):
        ex = SupervisedExecutor(ResiliencePolicy(jobs=2))
        outcomes = ex.map(_square, list(range(8)))
        assert [o.value for o in outcomes] == [i * i for i in range(8)]

    def test_task_timeout_kills_hung_worker(self):
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, task_timeout=0.4))
        t0 = time.monotonic()
        outcomes = ex.map(_hang_task, [1])
        wall = time.monotonic() - t0
        assert wall < 10.0                     # nowhere near the 30s hang
        [outcome] = outcomes
        assert outcome.status == "timeout"
        assert isinstance(outcome.error, TaskTimeoutError)
        assert "0.4" in str(outcome.error)

    def test_worker_crash_detected_and_attributed(self):
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, task_timeout=5.0))
        outcomes = ex.map(_crash_task, [1, 2])
        assert all(o.status == "crash" for o in outcomes)
        assert all(isinstance(o.error, WorkerCrashError) for o in outcomes)

    def test_heartbeat_stale_worker_killed(self):
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, heartbeat_grace=0.3))
        t0 = time.monotonic()
        [outcome] = ex.map(_stop_heartbeat_task, [1])
        assert time.monotonic() - t0 < 10.0
        assert outcome.status == "crash"
        assert isinstance(outcome.error, WorkerCrashError)
        assert "heartbeat" in str(outcome.error)

    def test_run_deadline_fails_pending_tasks_fast(self):
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, deadline=0.5))
        t0 = time.monotonic()
        outcomes = ex.map(_hang_task, [1, 2, 3, 4])
        wall = time.monotonic() - t0
        assert wall < 10.0
        assert all(o.status == "deadline" for o in outcomes)
        assert all(isinstance(o.error, DeadlineExceededError)
                   for o in outcomes)

    def test_pool_transient_retry_with_backoff(self, tmp_path):
        counter = tmp_path / "count"
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, max_retries=3, backoff=0.01))
        [outcome] = ex.map(_flaky_task, [str(counter)])
        assert outcome.ok and outcome.value == 2
        assert outcome.attempts == 3

    def test_healthy_tasks_survive_a_crasher(self):
        ex = SupervisedExecutor(
            ResiliencePolicy(jobs=2, task_timeout=5.0))

        outcomes = ex.map(_crash_or_square, [0, 1, 2, 3, 4])
        by_status = {o.index: o.status for o in outcomes}
        assert by_status[2] == "crash"
        good = [o.value for o in outcomes if o.ok]
        assert good == [0, 1, 9, 16]


def _crash_or_square(x):
    if x == 2:
        os._exit(3)  # pragma: no cover - the exit IS the test
    return x * x


def _raise_unknown(name):
    err = type(name, (ReproError,), {})("boom", source="f.json",
                                        stage="read")
    err.transient = True
    raise err


@pytest.mark.parametrize("name", ["NoSuchError", "Any"])
def test_worker_error_of_an_unknown_type_decodes_as_execution_error(name):
    """A reported class name that is not a ``ReproError`` of
    ``repro.errors`` (``Any`` is a name there, but no error class)
    rebuilds as the executor's fallback, keeping what was reported."""
    [outcome] = SupervisedExecutor(
        ResiliencePolicy(jobs=2, max_retries=0)).map(_raise_unknown, [name])
    err = outcome.error
    assert type(err) is ExecutionError
    assert (str(err), err.source, err.stage, err.transient) == (
        "boom [source: f.json]", "f.json", "read", True)
    assert type(from_record({"error_type": "SchemaError"})) is SchemaError


# ----------------------------------------------------------------------
# every ReproError round-trips as a record: JSON, worker pipe, journal
# ----------------------------------------------------------------------

ERROR_CLASSES = sorted(
    (obj for obj in vars(errors_module).values()
     if isinstance(obj, type) and issubclass(obj, ReproError)),
    key=lambda cls: cls.__name__)

# one value per constructor argument any class takes; each class gets
# the ones its signature names
_SAMPLE_ARGS = {
    "source": "runs/p7.json", "stage": "probe",
    "problems": ["unknown metric 'tiem'", "unbound identifier 'b'"],
    "suggestions": {"tiem": ["time", "time (exc)"]},
    "retry_after": 2.5, "reason": "queue_full", "status": 503,
    "code": "overloaded", "request_id": "req-42",
}


def _sample_error(name: str) -> ReproError:
    cls = getattr(errors_module, name)
    params = inspect.signature(cls).parameters
    err = cls("sample failure",
              **{k: v for k, v in _SAMPLE_ARGS.items() if k in params})
    err.transient = True
    return err


def _raise_sample(name):
    raise _sample_error(name)


def _assert_same_error(got, want):
    assert type(got) is type(want)
    assert (str(got), got.source, got.stage) == (
        str(want), want.source, want.stage)
    assert vars(got) == vars(want)   # every class field, transient too


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_record_round_trips_through_json(cls):
    want = _sample_error(cls.__name__)
    record = json.loads(json.dumps(want.to_record()))
    _assert_same_error(from_record(record), want)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_round_trips_through_a_worker(cls):
    """A pool task's typed error reaches the parent whole: ``map``
    never raises for it, whatever the class's constructor takes."""
    ex = SupervisedExecutor(ResiliencePolicy(jobs=2, max_retries=0))
    [outcome] = ex.map(_raise_sample, [cls.__name__])
    assert outcome.status == "error" and not outcome.ok
    _assert_same_error(outcome.error, _sample_error(cls.__name__))


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_round_trips_through_the_journal(cls, tmp_path):
    want = _sample_error(cls.__name__)
    key = str(tmp_path / "p.json")
    with CheckpointJournal(tmp_path / "ckpt") as journal:
        journal.record_quarantined(key, want)
    tk, report = load_ensemble([key], on_error="collect",
                               checkpoint=tmp_path / "ckpt")
    assert tk is None and report.resumed_quarantined == 1
    [q] = report.quarantined
    assert (q.source, q.stage) == (key, want.stage)
    _assert_same_error(q.error, want)


# ----------------------------------------------------------------------
# SignalGuard
# ----------------------------------------------------------------------

class TestSignalGuard:
    def test_sigint_outside_critical_raises_immediately(self):
        with SignalGuard() as guard:
            with pytest.raises(KeyboardInterrupt):
                guard._on_signal(signal.SIGINT, None)

    def test_sigterm_maps_to_systemexit(self):
        with SignalGuard() as guard:
            with pytest.raises(SystemExit) as exc:
                guard._on_signal(signal.SIGTERM, None)
            assert exc.value.code == 128 + signal.SIGTERM

    def test_signal_inside_critical_is_deferred(self):
        progressed = []
        with pytest.raises(KeyboardInterrupt):
            with SignalGuard() as guard:
                with guard.critical():
                    os.kill(os.getpid(), signal.SIGINT)
                    time.sleep(0.05)          # let the handler run
                    assert guard.interrupted  # recorded, not raised
                    progressed.append("critical completed")
        assert progressed == ["critical completed"]

    def test_nested_criticals_deliver_at_outermost_exit(self):
        order = []
        with pytest.raises(KeyboardInterrupt):
            with SignalGuard() as guard:
                with guard.critical():
                    with guard.critical():
                        guard._on_signal(signal.SIGINT, None)
                        order.append("inner")
                    order.append("between")   # inner exit must not raise
        assert order == ["inner", "between"]

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGINT)
        with SignalGuard():
            assert signal.getsignal(signal.SIGINT) != before
        assert signal.getsignal(signal.SIGINT) == before

    def test_noop_off_main_thread(self):
        import threading

        results = {}

        def run():
            with SignalGuard() as guard:
                results["installed"] = guard._installed

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert results["installed"] is False


class TestInterruptedIngestResumes:
    def test_ctrl_c_mid_run_then_resume(self, tmp_path, monkeypatch):
        """A SIGINT mid-campaign loses no journaled work on re-run."""
        from repro.ingest import pipeline

        paths = write_marbl_campaign(tmp_path / "camp", scale=0.2)
        ck = tmp_path / "ckpt"
        real_read = pipeline._read_text
        seen = []

        def read_then_interrupt(path):
            seen.append(path)
            if len(seen) == 4:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(0.05)
            return real_read(path)

        monkeypatch.setattr(pipeline, "_read_text", read_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            load_ensemble(paths, on_error="collect", checkpoint=ck)

        monkeypatch.setattr(pipeline, "_read_text", real_read)
        tk, report = load_ensemble(paths, on_error="collect",
                                   checkpoint=ck)
        assert tk is not None
        assert report.n_loaded == len(paths)
        # everything journaled before the interrupt was resumed, not
        # re-read (the interrupt landed on file 4; at least 3 are safe)
        assert report.n_resumed >= 3


# ----------------------------------------------------------------------
# fault injectors (workloads)
# ----------------------------------------------------------------------

class TestFaultInjection:
    def test_slow_io_still_loads_serially(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:3]
        inject_slow_io(paths[1], seconds=0.25)
        stalls = []
        tk, report = load_ensemble(paths, on_error="collect",
                                   sleep=stalls.append)
        assert tk is not None and report.n_loaded == 3
        assert stalls == [0.25]

    def test_hang_serial_quarantines_reader_error(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:3]
        inject_hang(paths[0], seconds=7.5)
        stalls = []
        tk, report = load_ensemble(paths, on_error="collect",
                                   sleep=stalls.append)
        assert report.n_loaded == 2
        [q] = report.quarantined
        assert q.error_type == "ReaderError" and "hang" in str(q.error)
        assert stalls == [7.5]

    def test_worker_crash_serial_is_simulated(self, tmp_path):
        """Outside a pool worker the crash must NOT kill the process."""
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:3]
        inject_worker_crash(paths[2])
        tk, report = load_ensemble(paths, on_error="collect")
        assert report.n_loaded == 2
        [q] = report.quarantined
        assert q.error_type == "WorkerCrashError"

    def test_reinjection_replaces_not_nests(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:1]
        inject_hang(paths[0])
        inject_slow_io(paths[0], seconds=0.0)
        payload = json.loads(Path(paths[0]).read_text())
        assert payload["__repro_fault__"]["mode"] == "slow_io"
        assert "__repro_fault__" not in payload["payload"]

    def test_unknown_fault_mode_is_schema_error(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:1]
        from repro.workloads.campaign import _wrap_fault
        _wrap_fault(paths[0], {"mode": "gamma_ray"})
        tk, report = load_ensemble(paths, on_error="collect")
        assert tk is None
        assert report.quarantined[0].error_type == "SchemaError"

    def test_corrupt_campaign_accepts_execution_modes(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)
        victims = corrupt_campaign(paths, fraction=0.25, seed=3,
                                   modes=["worker_crash", "slow_io"])
        assert victims
        for v in victims:
            payload = json.loads(Path(v).read_text())
            assert payload["__repro_fault__"]["mode"] in \
                ("worker_crash", "slow_io")
        assert set(EXECUTION_FAULT_MODES) == \
            {"hang", "slow_io", "worker_crash", "slowdown"}

    def test_unknown_mode_still_rejected(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)
        with pytest.raises(ValueError):
            corrupt_campaign(paths, fraction=0.5, modes=["nope"])


# ----------------------------------------------------------------------
# pipeline integration: parallel == serial, byte for byte
# ----------------------------------------------------------------------

class TestParallelPipeline:
    def test_parallel_output_byte_identical_to_serial(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)
        tk_s, _ = load_ensemble(paths, on_error="collect")
        tk_p, rep = load_ensemble(paths, on_error="collect",
                                  policy=ResiliencePolicy(jobs=3))
        assert tk_p.to_json() == tk_s.to_json()
        assert rep.jobs == 3
        assert "execute" in rep.stage_seconds

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), fraction=st.sampled_from(
        [0.0, 0.1, 0.3]))
    def test_byte_identity_survives_parse_corruption(self, seed, fraction,
                                                     tmp_path_factory):
        """Property: for parse-level corruption (no timing faults), a
        parallel run's thicket — provenance included — is byte-identical
        to the serial run's."""
        d = tmp_path_factory.mktemp("prop")
        paths = write_marbl_campaign(d, scale=0.2)
        corrupt_campaign(paths, fraction=fraction, seed=seed)
        tk_s, rep_s = load_ensemble(paths, on_error="collect")
        tk_p, rep_p = load_ensemble(paths, on_error="collect",
                                    policy=ResiliencePolicy(jobs=2))
        assert rep_p.n_loaded == rep_s.n_loaded
        assert [q.source for q in rep_p.quarantined] == \
            [q.source for q in rep_s.quarantined]
        assert [q.error_type for q in rep_p.quarantined] == \
            [q.error_type for q in rep_s.quarantined]
        if tk_s is None:
            assert tk_p is None
        else:
            assert tk_p.to_json() == tk_s.to_json()

    def test_parallel_strict_raises_lowest_index_error(self, tmp_path):
        paths = write_marbl_campaign(tmp_path, scale=0.2)
        corrupt_campaign(paths, fraction=0.3, seed=1,
                         modes=["not_json"])
        with pytest.raises(ReaderError):
            load_ensemble(paths, on_error="strict",
                          policy=ResiliencePolicy(jobs=2))

    def test_mixed_sources_stay_on_main_process(self, tmp_path):
        """GraphFrame/dict sources can't ship to workers; they load
        inline even under a supervised policy, and order holds."""
        paths = write_marbl_campaign(tmp_path, scale=0.2)[:4]
        payload = json.loads(Path(paths[1]).read_text())
        mixed = [paths[0], payload, paths[2], paths[3]]
        tk_s, _ = load_ensemble(mixed, on_error="collect")
        tk_p, _ = load_ensemble(mixed, on_error="collect",
                                policy=ResiliencePolicy(jobs=2))
        assert tk_p.to_json() == tk_s.to_json()

    def test_jobs_flag_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        write_marbl_campaign(tmp_path / "camp", scale=0.2)
        rc = main(["ingest", str(tmp_path / "camp"), "--jobs", "2",
                   "--task-timeout", "30", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["execution"]["jobs"] == 2
        assert doc["requested"] == 12


# ----------------------------------------------------------------------
# chaos acceptance: 200 profiles, hangs + crashes + corruption
# ----------------------------------------------------------------------

class TestChaosAcceptance:
    def test_200_profile_chaos_campaign(self, tmp_path):
        """The acceptance bar from the issue: a 200-profile campaign
        seeded with hangs, worker crashes, and corrupt payloads must
        finish under its deadline with every failure attributed."""
        paths = write_marbl_campaign(tmp_path / "camp", scale=3.4)
        assert len(paths) >= 200
        hangs = [paths[10], paths[90]]
        crashes = [paths[40], paths[150]]
        for p in hangs:
            inject_hang(p, seconds=30.0)
        for p in crashes:
            inject_worker_crash(p)
        healthy = [p for p in paths if p not in hangs + crashes]
        corrupt = corrupt_campaign(healthy, fraction=0.03, seed=7,
                                   modes=["not_json", "truncate"])

        # task_timeout is generous relative to a healthy profile
        # (milliseconds) but far under the 30s hang, so the only tasks
        # it can kill — even on a loaded single-core CI box — are the
        # injected hangs
        deadline = 120.0
        t0 = time.monotonic()
        tk, report = load_ensemble(
            paths, on_error="collect", checkpoint=tmp_path / "ckpt",
            policy=ResiliencePolicy(jobs=4, task_timeout=3.0,
                                    deadline=deadline))
        wall = time.monotonic() - t0
        assert wall < deadline

        n_bad = len(hangs) + len(crashes) + len(corrupt)
        assert report.n_loaded == len(paths) - n_bad
        assert report.n_quarantined == n_bad
        assert report.timeouts == len(hangs)
        assert report.worker_crashes == len(crashes)
        by_type = {}
        for q in report.quarantined:
            by_type.setdefault(q.error_type, []).append(q.source)
        assert sorted(by_type["TaskTimeoutError"]) == \
            sorted(str(p) for p in hangs)
        assert sorted(by_type["WorkerCrashError"]) == \
            sorted(str(p) for p in crashes)

        # the surviving ensemble matches a serial run of the same
        # campaign (timing faults carry different error types serially,
        # so compare the composed data, not the provenance)
        tk_serial, rep_serial = load_ensemble(paths, on_error="collect",
                                              sleep=lambda s: None)
        assert rep_serial.n_loaded == report.n_loaded
        assert sorted(report.loaded) == sorted(rep_serial.loaded)
        assert tk.dataframe.shape == tk_serial.dataframe.shape
        assert len(tk.graph) == len(tk_serial.graph)

        # and the checkpoint lets the whole chaos run resume instantly
        tk2, rep2 = load_ensemble(
            paths, on_error="collect", checkpoint=tmp_path / "ckpt",
            policy=ResiliencePolicy(jobs=4, task_timeout=3.0))
        assert rep2.n_resumed == report.n_loaded
        assert rep2.resumed_quarantined == n_bad
        assert tk2.to_json() == tk.to_json()


class TestCircuitBreakerConcurrency:
    """Satellite (PR 7): the half-open probe admission is atomic — of N
    threads racing allow() after the cooldown, exactly one wins."""

    def test_exactly_one_halfopen_probe_under_contention(self):
        import threading

        clock_value = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0,
                                 clock=lambda: clock_value[0])
        breaker.record_failure("key")          # open
        clock_value[0] = 5.1                   # cooldown elapsed
        assert breaker.state("key") == HALF_OPEN

        n = 16
        barrier = threading.Barrier(n)
        admitted = []
        lock = threading.Lock()

        def racer():
            barrier.wait()                     # maximal contention
            if breaker.allow("key"):
                with lock:
                    admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=racer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(admitted) == 1

    def test_probe_slot_reopens_after_each_outcome(self):
        clock_value = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0,
                                 clock=lambda: clock_value[0])
        breaker.record_failure("key")
        clock_value[0] = 5.1
        assert breaker.allow("key")            # probe admitted
        assert not breaker.allow("key")        # slot held
        breaker.record_failure("key")          # probe failed → reopen
        assert not breaker.allow("key")        # cooling down again
        clock_value[0] = 10.3
        assert breaker.allow("key")            # next probe
        breaker.record_success("key")
        assert breaker.allow("key")            # closed: everyone in

    def test_concurrent_mixed_traffic_keeps_counts_consistent(self):
        import threading

        breaker = CircuitBreaker(threshold=3, cooldown=0.0)
        keys = [f"k{i}" for i in range(4)]

        def hammer(seed):
            for i in range(200):
                key = keys[(seed + i) % len(keys)]
                if breaker.allow(key):
                    if (seed + i) % 3:
                        breaker.record_failure(key)
                    else:
                        breaker.record_success(key)

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert breaker.trips >= 0              # no deadlock, no torn dict
        assert not any(t.is_alive() for t in threads)

    def test_retry_after_counts_down_with_cooldown(self):
        clock_value = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=10.0,
                                 clock=lambda: clock_value[0])
        assert breaker.retry_after("key") == 0.0   # never seen
        breaker.record_failure("key")
        assert breaker.retry_after("key") == pytest.approx(10.0)
        clock_value[0] = 4.0
        assert breaker.retry_after("key") == pytest.approx(6.0)
        clock_value[0] = 11.0
        assert breaker.retry_after("key") == 0.0   # probe-eligible


class TestSignalGuardNesting:
    """Satellite (PR 7): a guard entered inside another guard's scope
    (the server's guard around the CLI's, library code inside both)
    shares critical depth — a signal in the inner guard's critical
    section defers until the *outermost* critical exit."""

    def test_guard_inside_guard_defers_to_outermost_exit(self):
        order = []
        with pytest.raises(KeyboardInterrupt):
            with SignalGuard() as outer:
                with outer.critical():
                    with SignalGuard() as inner:
                        with inner.critical():
                            inner._on_signal(signal.SIGINT, None)
                            order.append("inner critical done")
                        # inner critical exited, but the OUTER critical
                        # is still open: nothing may raise here
                        order.append("inner guard exited")
                    order.append("still inside outer critical")
        assert order == ["inner critical done", "inner guard exited",
                         "still inside outer critical"]

    def test_signal_in_inner_guard_outside_critical_raises(self):
        with SignalGuard():
            with SignalGuard() as inner:
                with pytest.raises(KeyboardInterrupt):
                    inner._on_signal(signal.SIGINT, None)

    def test_inner_guard_exit_hands_pending_back_to_outer(self):
        delivered = []
        with pytest.raises(SystemExit):
            with SignalGuard() as outer:
                with outer.critical():
                    with SignalGuard() as inner:
                        inner._on_signal(signal.SIGTERM, None)
                    # inner guard fully exited while the outer critical
                    # holds: the pending signal must survive the exit
                    assert outer.interrupted
                    delivered.append("outer critical still protected")
        assert delivered == ["outer critical still protected"]

    def test_interleaved_criticals_across_guards(self):
        order = []
        with pytest.raises(KeyboardInterrupt):
            with SignalGuard() as outer:
                with SignalGuard() as inner:
                    with outer.critical():
                        with inner.critical():
                            outer._on_signal(signal.SIGINT, None)
                            order.append("both held")
                        order.append("inner released")
                    order.append("outer released")
                    pytest.fail("delivery must happen at depth zero")
        assert order == ["both held", "inner released"]

    def test_nested_guards_restore_handlers_in_order(self):
        before = signal.getsignal(signal.SIGINT)
        with SignalGuard():
            mid = signal.getsignal(signal.SIGINT)
            with SignalGuard():
                pass
            assert signal.getsignal(signal.SIGINT) == mid
        assert signal.getsignal(signal.SIGINT) == before

    def test_shared_state_clean_after_nested_exit(self):
        with SignalGuard() as outer:
            with SignalGuard():
                pass
            assert not outer.interrupted
        assert SignalGuard._active == []
        assert SignalGuard._shared_depth == 0
        assert SignalGuard._shared_pending is None
