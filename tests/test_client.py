"""repro.client: end-to-end request resilience.

Unit layers (policy, idempotency cache) run with
injected clocks — no sleeping.  ``ReproClient`` retry/hedge/breaker
semantics are tested through a fake connection factory (no sockets,
recorded sleeps).  The server half of the contract (deadline
propagation, request ids, replay) is tested transport-free through
``AnalysisService.dispatch``, then over real loopback sockets against
the :class:`~repro.workloads.FlakyServer` fault injector, ending in
the chaos acceptance scenario from the issue: 16 concurrent clients
against a server dropping connections, returning 500s, stalling
bodies, and duplicating deliveries — zero duplicate ingests, every
failure typed, retries bounded by the budget.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro import Thicket
from repro.caliper.writer import profile_to_cali_dict
from repro.client import (
    DEADLINE_HEADER,
    DEFAULT_CLIENT_POLICY,
    IDEMPOTENCY_HEADER,
    ClientPolicy,
    ReproClient,
)
from repro.client.client import _HEDGE_FALLBACK_DELAY, _HEDGE_MIN_SAMPLES
from repro.client.policy import _RETRY_AFTER_CAP
from repro.errors import (
    CircuitOpenError,
    ClientCircuitOpenError,
    ClientDeadlineError,
    ClientError,
    RetryBudgetExhaustedError,
    ServeError,
    ServerRejectedError,
    TransportError,
)
from repro.serve import (
    AnalysisService,
    IdempotencyCache,
    ReproServer,
    WorkerPool,
)
from repro.serve.http import _MAX_BODY_BYTES
from repro.workloads import FLAKY_MODES, FlakyServer, QUARTZ, \
    generate_rajaperf_profile

KERNELS = ["Stream_DOT", "Apps_VOL3D"]
QUERY = 'MATCH (".", p) WHERE p."name" = "Stream_DOT"'


class FakeClock:
    def __init__(self, start=0.0):
        self.t = start

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _payloads(n=2, size=1048576):
    return [profile_to_cali_dict(generate_rajaperf_profile(
        QUARTZ, size, kernels=KERNELS, seed=seed))
        for seed in range(1, n + 1)]


def _make_service(tmp_path, **kw):
    kw.setdefault("pool", WorkerPool(workers=2, queue_limit=8,
                                     task_timeout=5.0,
                                     watchdog_interval=0.05))
    kw.setdefault("request_timeout", 5.0)
    return AnalysisService(tmp_path / "store", **kw)


def test_import_repro_client_does_not_load_repro_serve():
    """The client shares only ``repro.resilience`` with the server; a
    process that talks to ``repro serve`` never loads the server."""
    import os
    import subprocess
    import sys

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c",
         "import repro.client, sys; "
         "loaded = sorted(m for m in sys.modules "
         "if m.split('.')[:2] == ['repro', 'serve']); "
         "assert not loaded, loaded"],
        env=env, check=True)


# ---------------------------------------------------------------------------
# ClientPolicy


class TestClientPolicy:
    def test_defaults_are_valid(self):
        assert DEFAULT_CLIENT_POLICY.max_attempts == 4
        assert DEFAULT_CLIENT_POLICY.hedge

    @pytest.mark.parametrize("field,value", [
        ("max_attempts", 0), ("call_timeout", 0.0),
        ("attempt_timeout", -1.0), ("backoff", -0.1),
        ("backoff_jitter", 1.5), ("retry_budget_capacity", 0.0),
        ("hedge_delay", -0.5), ("breaker_threshold", -1),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ClientPolicy(**{field: value})

    def test_delay_grows_exponentially(self):
        p = ClientPolicy(backoff=0.1, backoff_jitter=0.0)
        import random
        rng = random.Random(0)
        assert p.delay_for(0, rng) == pytest.approx(0.1)
        assert p.delay_for(2, rng) == pytest.approx(0.4)

    def test_retry_after_is_a_floor_and_capped(self):
        import random
        rng = random.Random(0)
        p = ClientPolicy(backoff=0.01, backoff_jitter=0.0)
        # a hint below the cap is the floor under the backoff ...
        below = _RETRY_AFTER_CAP / 5
        assert p.retry_delay(0, rng, below) == pytest.approx(below)
        # ... a hint above it is clipped to the cap
        assert p.retry_delay(0, rng, _RETRY_AFTER_CAP * 6) == \
            pytest.approx(_RETRY_AFTER_CAP)
        assert p.retry_delay(0, rng, None) == pytest.approx(0.01)
        assert p.retry_delay(0, rng, 0.001) == pytest.approx(0.01)

    def test_replace(self):
        # a copy is validated like a fresh policy
        p = dataclasses.replace(DEFAULT_CLIENT_POLICY, max_attempts=7)
        assert p.max_attempts == 7
        assert DEFAULT_CLIENT_POLICY.max_attempts == 4
        with pytest.raises(ValueError):
            dataclasses.replace(DEFAULT_CLIENT_POLICY, max_attempts=0)


# ---------------------------------------------------------------------------
# Retry budget (the client's TokenBucket plus its spent/denied counts)


def _budget_client(rate, capacity, clock):
    return ReproClient("http://fake:1234", clock=clock,
                       policy=ClientPolicy(retry_budget_rate=rate,
                                           retry_budget_capacity=capacity))


class TestRetryBudget:
    def test_spend_to_empty_then_refill(self):
        clock = FakeClock()
        c = _budget_client(1.0, 2.0, clock)
        assert c._spend()
        assert c._spend()
        assert not c._spend()
        assert c.to_dict()["budget"]["denied"] == 1
        clock.advance(1.5)
        assert c._spend()
        assert c.to_dict()["budget"]["spent"] == 3

    def test_frozen_budget_never_refills(self):
        clock = FakeClock()
        c = _budget_client(0.0, 3.0, clock)
        for _ in range(3):
            assert c._spend()
        clock.advance(1e6)
        assert not c._spend()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            _budget_client(1.0, 0.5, FakeClock())

    def test_to_dict(self):
        c = _budget_client(2.0, 4.0, FakeClock())
        c._spend()
        d = c.to_dict()["budget"]
        assert d["spent"] == 1 and d["capacity"] == 4.0
        assert d["remaining"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# IdempotencyCache


class TestIdempotencyCache:
    def test_keyless_always_executes(self):
        cache = IdempotencyCache(clock=FakeClock())
        calls = []
        for _ in range(3):
            result, replayed = cache.execute(None, lambda: calls.append(1))
            assert not replayed
        assert len(calls) == 3 and cache.executions == 0

    def test_replay_completed_result(self):
        cache = IdempotencyCache(clock=FakeClock())
        calls = []

        def work():
            calls.append(1)
            return {"n": len(calls)}

        first, replayed1 = cache.execute("k", work)
        second, replayed2 = cache.execute("k", work)
        assert first == second == {"n": 1}
        assert (replayed1, replayed2) == (False, True)
        assert len(calls) == 1 and cache.replays == 1

    def test_failure_propagates_but_is_not_cached(self):
        cache = IdempotencyCache(clock=FakeClock())
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(ValueError):
            cache.execute("k", flaky)
        result, replayed = cache.execute("k", flaky)
        assert result == "ok" and not replayed
        assert len(attempts) == 2

    def test_inflight_duplicates_coalesce(self):
        cache = IdempotencyCache()
        release = threading.Event()
        started = threading.Event()
        outcomes = []

        def slow():
            started.set()
            release.wait(5.0)
            return "answer"

        def run():
            outcomes.append(cache.execute("k", slow))

        threads = [threading.Thread(target=run) for _ in range(3)]
        threads[0].start()
        assert started.wait(5.0)
        for t in threads[1:]:
            t.start()
        deadline = time.monotonic() + 5.0
        while cache.coalesced < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(timeout=5.0)
        assert sorted(r for r, _ in outcomes) == ["answer"] * 3
        assert cache.executions == 1 and cache.coalesced == 2
        assert sum(1 for _, replayed in outcomes if replayed) == 2

    def test_ttl_expiry_reexecutes(self):
        clock = FakeClock()
        cache = IdempotencyCache(ttl=10.0, clock=clock)
        calls = []
        cache.execute("k", lambda: calls.append(1))
        clock.advance(11.0)
        _, replayed = cache.execute("k", lambda: calls.append(1))
        assert not replayed and len(calls) == 2

    def test_capacity_evicts_oldest(self):
        clock = FakeClock()
        cache = IdempotencyCache(capacity=2, ttl=1e6, clock=clock)
        for i in range(3):
            clock.advance(1.0)
            cache.execute(f"k{i}", lambda: i)
        clock.advance(1.0)
        _, replayed = cache.execute("k0", lambda: "again")
        assert not replayed  # k0 was evicted as oldest
        assert len(cache) <= 3


# ---------------------------------------------------------------------------
# ReproClient over a fake transport


class FakeResponse:
    def __init__(self, status=200, body=None, headers=None):
        self.status = status
        self._raw = json.dumps(body if body is not None else {"ok": True},
                               sort_keys=True).encode("utf-8")
        self._headers = dict(headers or {})
        self._headers.setdefault("X-Repro-Request-Id", "req-fake")

    def read(self):
        return self._raw

    def getheaders(self):
        return list(self._headers.items())


class FakeConnection:
    """One scripted exchange: a FakeResponse, or an exception to raise."""

    def __init__(self, outcome, record, block=None):
        self.outcome = outcome
        self.record = record
        self.block = block
        self.closed = False

    def request(self, method, path, body=None, headers=None):
        self.record.append({"method": method, "path": path,
                            "body": body, "headers": dict(headers or {})})

    def getresponse(self):
        if self.block is not None and not self.block.wait(5.0):
            raise OSError("fake connection cancelled")
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome

    def close(self):
        self.closed = True


def make_client(outcomes, *, policy=None, record=None, blocks=None, **kw):
    """A ReproClient whose transport replays *outcomes* (last repeats)."""
    record = record if record is not None else []
    lock = threading.Lock()
    state = {"i": 0}

    def factory(host, port, timeout):
        with lock:
            i = min(state["i"], len(outcomes) - 1)
            state["i"] += 1
        block = None
        if blocks is not None and i < len(blocks):
            block = blocks[i]
        return FakeConnection(outcomes[i], record, block=block)

    sleeps = []
    kw.setdefault("sleep", sleeps.append)
    kw.setdefault("key_factory", iter(f"key-{n}" for n in range(100))
                  .__next__)
    client = ReproClient("http://fake:1234", policy=policy,
                         connection_factory=factory, **kw)
    client._test_record = record
    client._test_sleeps = sleeps
    return client


NO_HEDGE = ClientPolicy(hedge=False, backoff=0.001, backoff_jitter=0.0)


class TestReproClientFakeTransport:
    def test_success_returns_parsed_body(self):
        c = make_client([FakeResponse(200, {"answer": 42})],
                        policy=NO_HEDGE)
        resp = c.request("GET", "/v1/datasets")
        assert resp.status == 200 and resp.body == {"answer": 42}
        assert resp.request_id == "req-fake"
        assert c.retries == 0

    def test_transport_error_retries_then_succeeds(self):
        c = make_client([OSError("connection refused"),
                         FakeResponse(200, {"ok": 1})], policy=NO_HEDGE)
        resp = c.request("GET", "/v1/datasets")
        assert resp.body == {"ok": 1}
        assert c.retries == 1 and c.to_dict()["budget"]["spent"] == 1
        assert len(c._test_sleeps) == 1

    def test_retryable_status_retries(self):
        c = make_client([FakeResponse(503, {"error": {"code": "not_ready",
                                                      "message": "x"}}),
                         FakeResponse(200)], policy=NO_HEDGE)
        assert c.request("GET", "/healthz").status == 200
        assert c.retries == 1

    def test_client_error_status_does_not_retry(self):
        c = make_client([FakeResponse(404, {"error": {
            "code": "not_found", "message": "no dataset"}})],
            policy=NO_HEDGE)
        with pytest.raises(ServerRejectedError) as err:
            c.request("GET", "/v1/datasets")
        assert err.value.status == 404 and err.value.code == "not_found"
        assert err.value.request_id == "req-fake"
        assert c.retries == 0 and len(c._test_record) == 1

    def test_retry_after_floors_the_backoff(self):
        c = make_client([FakeResponse(429, {"error": {
            "code": "overloaded", "message": "shed",
            "retry_after": 2.5}}), FakeResponse(200)], policy=NO_HEDGE)
        c.request("GET", "/healthz")
        assert c._test_sleeps == [pytest.approx(2.5)]

    def test_retry_budget_exhaustion_is_typed_and_fast(self):
        policy = ClientPolicy(hedge=False, max_attempts=100,
                              backoff=0.0, backoff_jitter=0.0,
                              retry_budget_rate=0.0,
                              retry_budget_capacity=2.0)
        c = make_client([OSError("down")], policy=policy)
        start = time.monotonic()
        with pytest.raises(RetryBudgetExhaustedError) as err:
            c.request("GET", "/healthz")
        assert time.monotonic() - start < 5.0
        assert isinstance(err.value.__cause__, TransportError)
        assert isinstance(err.value, ClientError)
        # 1 initial + 2 budget-funded retries, then the bucket is dry
        assert len(c._test_record) == 3
        assert c.to_dict()["budget"]["denied"] == 1

    def test_max_attempts_raises_last_error(self):
        policy = ClientPolicy(hedge=False, max_attempts=2, backoff=0.0,
                              backoff_jitter=0.0)
        c = make_client([OSError("down")], policy=policy)
        with pytest.raises(TransportError):
            c.request("GET", "/healthz")
        assert len(c._test_record) == 2

    def test_breaker_opens_after_threshold(self):
        policy = ClientPolicy(hedge=False, max_attempts=2, backoff=0.0,
                              backoff_jitter=0.0, breaker_threshold=2,
                              breaker_cooldown=100.0)
        c = make_client([OSError("down")], policy=policy)
        with pytest.raises(TransportError):
            c.request("GET", "/healthz")
        transport_calls = len(c._test_record)
        with pytest.raises(ClientCircuitOpenError) as err:
            c.request("GET", "/healthz")
        # the fast-fail is typed both ways and never touched the wire
        assert isinstance(err.value, ClientError)
        assert isinstance(err.value, CircuitOpenError)
        assert len(c._test_record) == transport_calls

    def test_expired_deadline_fails_fast_without_transport(self):
        c = make_client([FakeResponse(200)], policy=NO_HEDGE)
        with pytest.raises(ClientDeadlineError):
            c.request("GET", "/healthz", deadline=-1.0)
        assert c._test_record == []

    def test_headers_stamped(self):
        c = make_client([FakeResponse(200)], policy=NO_HEDGE,
                        client_id="tester")
        c.request("POST", "/v1/ingest", {"dataset": "d"}, deadline=5.0)
        sent = c._test_record[0]["headers"]
        assert 0 < int(sent[DEADLINE_HEADER]) <= 5000
        assert sent["X-Client-Id"] == "tester"
        assert sent[IDEMPOTENCY_HEADER] == "key-0"
        assert c._test_record[0]["body"] == json.dumps(
            {"dataset": "d"}, sort_keys=True).encode("utf-8")

    def test_same_idempotency_key_across_retries(self):
        c = make_client([OSError("drop"), FakeResponse(200)],
                        policy=NO_HEDGE)
        c.request("POST", "/v1/ingest", {"dataset": "d"})
        keys = {r["headers"][IDEMPOTENCY_HEADER]
                for r in c._test_record}
        assert len(c._test_record) == 2 and len(keys) == 1

    def test_get_has_no_key_when_hedging_disabled(self):
        c = make_client([FakeResponse(200)], policy=NO_HEDGE)
        c.request("GET", "/healthz")
        assert IDEMPOTENCY_HEADER not in c._test_record[0]["headers"]

    def test_unsafe_without_key_is_not_retried(self):
        c = make_client([OSError("drop"), FakeResponse(200)],
                        policy=NO_HEDGE)
        with pytest.raises(TransportError):
            c.request("POST", "/v1/ingest", {"dataset": "d"},
                      idempotency_key="")
        assert len(c._test_record) == 1

    def test_hedged_get_shares_key_and_counts_win(self):
        release = threading.Event()
        policy = ClientPolicy(hedge=True, hedge_delay=0.02,
                              backoff=0.0, backoff_jitter=0.0)
        c = make_client([FakeResponse(200, {"leg": "primary"}),
                         FakeResponse(200, {"leg": "backup"})],
                        policy=policy, blocks=[release, None])
        try:
            resp = c.request("GET", "/v1/datasets")
            assert resp.body == {"leg": "backup"}
            assert resp.hedged
            assert c.hedges == 1 and c.hedge_wins == 1
            # the hedge paid a token
            assert c.to_dict()["budget"]["spent"] == 1
            keys = {r["headers"][IDEMPOTENCY_HEADER]
                    for r in c._test_record}
            assert len(c._test_record) == 2 and len(keys) == 1
        finally:
            release.set()

    def test_fast_primary_never_hedges(self):
        policy = ClientPolicy(hedge=True, hedge_delay=5.0)
        c = make_client([FakeResponse(200)], policy=policy)
        resp = c.request("GET", "/healthz")
        assert not resp.hedged and c.hedges == 0
        assert len(c._test_record) == 1

    def test_hedge_delay_tracks_p95(self):
        clock = FakeClock()
        policy = ClientPolicy(hedge_delay=None)
        c = make_client([FakeResponse(200)], policy=policy, clock=clock)
        assert c.hedge_delay() == pytest.approx(_HEDGE_FALLBACK_DELAY)
        latencies = [0.01] * (_HEDGE_MIN_SAMPLES - 1)
        for latency in latencies:
            c._record_latency(latency)
        # one sample short of the minimum: still the cold-start delay
        assert c.hedge_delay() == pytest.approx(_HEDGE_FALLBACK_DELAY)
        c._record_latency(0.5)
        assert c.hedge_delay() == pytest.approx(0.5)

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            ReproClient("ftp://example.com")
        with pytest.raises(ValueError):
            ReproClient("http://")

    def test_to_dict_snapshot(self):
        policy = ClientPolicy(hedge=False, backoff=0.0, backoff_jitter=0.0,
                              retry_budget_rate=2.0,
                              retry_budget_capacity=4.0)
        c = make_client([OSError("drop"), FakeResponse(200)],
                        policy=policy, clock=FakeClock())
        c.request("GET", "/healthz")
        d = c.to_dict()
        assert d["host"] == "fake:1234"
        assert d["breaker_state"] == "closed"
        assert d["retries"] == 1
        assert d["budget"] == {"rate": 2.0, "capacity": 4.0, "spent": 1,
                               "denied": 0, "remaining": 3.0}


# ---------------------------------------------------------------------------
# Server half: dispatch-level contract (transport-free)


class TestServeContract:
    def test_request_id_on_success(self, tmp_path):
        svc = _make_service(tmp_path,
                            request_id_factory=iter(
                                f"rid-{n}" for n in range(10)).__next__)
        try:
            status, _, headers = svc.dispatch("GET", "/healthz", None, "c")
            assert status == 200
            assert headers["X-Repro-Request-Id"] == "rid-0"
        finally:
            svc.shutdown()

    def test_request_id_in_error_envelope(self, tmp_path):
        svc = _make_service(tmp_path)
        try:
            status, body, headers = svc.dispatch(
                "POST", "/v1/query", {"query": "x"}, "c")
            assert status == 400
            rid = body["error"]["request_id"]
            assert rid and headers["X-Repro-Request-Id"] == rid
        finally:
            svc.shutdown()

    def test_expired_deadline_refused_before_admission(self, tmp_path):
        svc = _make_service(tmp_path)
        try:
            status, body, _ = svc.dispatch(
                "POST", "/v1/query",
                {"dataset": "d", "query": QUERY}, "c",
                {"X-Repro-Deadline-Ms": "0"})
            assert status == 503
            assert body["error"]["code"] == "deadline_exceeded"
            # refused before queueing: nothing executed, nothing keyed
            assert svc.idempotency.executions == 0
            assert svc.pool.inflight == 0
        finally:
            svc.shutdown()

    def test_propagated_deadline_shrinks_worker_timeout(self, tmp_path):
        svc = _make_service(tmp_path)
        seen = []
        original = svc.pool.run

        def spy(fn, *args, timeout=None, label="task"):
            seen.append(timeout)
            return original(fn, *args, timeout=timeout, label=label)

        svc.pool.run = spy
        try:
            svc.dispatch("POST", "/v1/query",
                         {"dataset": "d", "query": QUERY}, "c",
                         {"X-Repro-Deadline-Ms": "1500"})
            assert seen == [pytest.approx(1.5)]
            seen.clear()
            svc.dispatch("POST", "/v1/query",
                         {"dataset": "d", "query": QUERY}, "c",
                         {"X-Repro-Deadline-Ms": "999000"})
            assert seen == [pytest.approx(5.0)]  # server ceiling wins
        finally:
            svc.shutdown()

    def test_garbage_deadline_header_is_ignored(self, tmp_path):
        svc = _make_service(tmp_path)
        try:
            status, _, _ = svc.dispatch("GET", "/healthz", None, "c",
                                        {"X-Repro-Deadline-Ms": "soon"})
            assert status == 200
        finally:
            svc.shutdown()

    def test_keyed_ingest_replays_not_reexecutes(self, tmp_path):
        svc = _make_service(tmp_path)
        payload = {"dataset": "demo", "profiles": _payloads()}
        headers = {"X-Repro-Idempotency-Key": "ing-1"}
        try:
            s1, b1, h1 = svc.dispatch("POST", "/v1/ingest", payload,
                                      "c", headers)
            s2, b2, h2 = svc.dispatch("POST", "/v1/ingest", payload,
                                      "c", headers)
            assert s1 == s2 == 200 and b1 == b2
            assert "X-Repro-Idempotent-Replay" not in h1
            assert h2["X-Repro-Idempotent-Replay"] == "1"
            assert svc.idempotency.replays == 1
            # exactly one store write happened
            tk = Thicket.load(tmp_path / "store" / "demo.json")
            assert len(tk.profile) == 2
        finally:
            svc.shutdown()

    def test_worker_pool_skips_items_expired_in_queue(self):
        pool = WorkerPool(workers=1, queue_limit=4, task_timeout=5.0,
                          watchdog_interval=0.05)
        try:
            item = pool.submit(lambda: "ran", label="stale",
                               deadline=time.monotonic() - 1.0)
            assert item.done.wait(5.0)
            assert item.result is None
            assert item.error is not None
            assert item.error.code == "deadline_exceeded"
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Live sockets: ReproClient against real and flaky servers


def _fresh_policy(**kw):
    kw.setdefault("backoff", 0.01)
    kw.setdefault("backoff_jitter", 0.0)
    kw.setdefault("call_timeout", 20.0)
    kw.setdefault("attempt_timeout", 5.0)
    return ClientPolicy(**kw)


class TestClientServerE2E:
    def test_roundtrip_and_request_id(self, tmp_path):
        svc = _make_service(tmp_path)
        with ReproServer(svc, port=0) as server:
            with ReproClient(f"http://127.0.0.1:{server.port}",
                             policy=_fresh_policy(hedge=False)) as c:
                assert c.health() == {"status": "ok"}
                resp = c.request("GET", "/v1/datasets")
                assert resp.request_id
                ingest = c.ingest("demo", _payloads())
                assert ingest["profiles"] == 2
                assert c.datasets() == ["demo"]
                assert c.query("demo", QUERY)["profiles"] == 2

    def test_hedged_get_dedup(self, tmp_path):
        """Both hedge legs reach the server; exactly one executes."""
        svc = _make_service(tmp_path)
        flaky = FlakyServer(svc, modes=("slow_body",), fault_rate=1.0,
                            seed=3, slow_delay=0.6)
        policy = _fresh_policy(hedge=True, hedge_delay=0.05)
        with flaky:
            with ReproClient(flaky.url, policy=policy) as c:
                before = flaky.requests
                executions = svc.idempotency.executions
                resp = c.request("GET", "/v1/datasets")
                assert resp.status == 200
                assert c.hedges == 1
                assert flaky.requests - before <= 2
                # the coalesced/replayed leg never re-executed
                assert svc.idempotency.executions - executions == 1
                assert svc.idempotency.replays \
                    + svc.idempotency.coalesced >= 1

    def test_duplicate_delivery_ingests_once(self, tmp_path):
        svc = _make_service(tmp_path)
        flaky = FlakyServer(svc, modes=("duplicate_delivery",),
                            fault_rate=1.0, seed=5)
        with flaky:
            with ReproClient(flaky.url,
                             policy=_fresh_policy(hedge=False)) as c:
                result = c.ingest("dup", _payloads())
                assert result["profiles"] == 2
        assert svc.idempotency.replays + svc.idempotency.coalesced >= 1
        tk = Thicket.load(tmp_path / "store" / "dup.json")
        assert len(tk.profile) == 2

    def test_retries_recover_from_500s_and_drops(self, tmp_path):
        svc = _make_service(tmp_path)
        flaky = FlakyServer(svc, modes=("http_500", "drop_connection"),
                            fault_rate=0.5, seed=11)
        policy = _fresh_policy(hedge=False, max_attempts=8,
                               retry_budget_capacity=16.0)
        with flaky:
            with ReproClient(flaky.url, policy=policy) as c:
                assert c.ingest("r", _payloads())["profiles"] == 2
                assert c.query("r", QUERY)["profiles"] == 2
        tk = Thicket.load(tmp_path / "store" / "r.json")
        assert len(tk.profile) == 2

    def test_flaky_failures_are_typed(self, tmp_path):
        svc = _make_service(tmp_path)
        flaky = FlakyServer(svc, modes=("http_500",), fault_rate=1.0,
                            seed=1)
        policy = _fresh_policy(hedge=False, max_attempts=3,
                               retry_budget_capacity=2.0,
                               retry_budget_rate=0.0)
        with flaky:
            with ReproClient(flaky.url, policy=policy) as c:
                with pytest.raises((RetryBudgetExhaustedError,
                                    ServerRejectedError)) as err:
                    c.request("GET", "/v1/datasets")
                assert isinstance(err.value, ClientError)

    def test_flaky_and_real_server_share_the_400_envelope(self, tmp_path):
        """At fault_rate=0 the fault server is ``repro serve``'s own
        transport: an oversized body and a non-object JSON body get the
        same typed 400 from both."""

        def bad_requests(port):
            answers = []
            for body in (None, "[1, 2]"):
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=10)
                try:
                    if body is None:  # announce a body over the cap
                        conn.putrequest("POST", "/v1/query")
                        conn.putheader("Content-Length",
                                       str(_MAX_BODY_BYTES + 1))
                        conn.endheaders()
                    else:
                        conn.request("POST", "/v1/query", body)
                    resp = conn.getresponse()
                    answers.append((resp.status, json.loads(resp.read())))
                finally:
                    conn.close()
            return answers

        with ReproServer(_make_service(tmp_path / "real"),
                         port=0) as server:
            real = bad_requests(server.port)
        with FlakyServer(_make_service(tmp_path / "flaky"),
                         fault_rate=0.0) as flaky:
            chaos = bad_requests(flaky.port)
        assert chaos == real
        (big, not_object) = real
        assert big[0] == not_object[0] == 400
        assert big[1]["error"]["code"] == "bad_request"
        assert "exceeds" in big[1]["error"]["message"]
        assert not_object[1]["error"]["message"] == \
            "request body must be a JSON object"


@pytest.mark.slow
class TestChaosAcceptance:
    def test_sixteen_clients_against_full_fault_mix(self, tmp_path):
        """The acceptance scenario from the issue.

        16 concurrent clients run ingests and reads against a server
        injecting every fault mode at 30%.  Afterwards: zero duplicate
        ingests (store profile counts exact), zero unhandled
        exceptions, every failure typed, and per-client retries inside
        the configured budget.
        """
        svc = _make_service(
            tmp_path,
            pool=WorkerPool(workers=4, queue_limit=64, task_timeout=10.0,
                            watchdog_interval=0.05),
            request_timeout=10.0)
        flaky = FlakyServer(svc, modes=FLAKY_MODES, fault_rate=0.3,
                            seed=7, slow_delay=0.2)
        budget_cap = 8.0
        payloads = _payloads()
        outcomes: dict[int, dict] = {}

        def one_client(idx: int) -> None:
            policy = _fresh_policy(max_attempts=5,
                                   retry_budget_capacity=budget_cap,
                                   retry_budget_rate=0.0,
                                   hedge=True, hedge_delay=0.1,
                                   attempt_timeout=3.0)
            record = {"failures": [], "untyped": [], "ingested": False,
                      "retries": 0, "hedges": 0}
            with ReproClient(flaky.url, policy=policy,
                             client_id=f"chaos-{idx}") as c:
                ops = [
                    lambda: c.ingest(f"chaos_{idx}", payloads),
                    lambda: c.request("GET", "/v1/datasets"),
                    lambda: c.health(),
                ]
                for op_idx, op in enumerate(ops):
                    try:
                        op()
                        if op_idx == 0:
                            record["ingested"] = True
                    except ClientError as exc:
                        record["failures"].append(type(exc).__name__)
                    except ServeError as exc:  # typed, server-side
                        record["failures"].append(type(exc).__name__)
                    except BaseException as exc:  # pragma: the assertion
                        # target — anything untyped must fail the test
                        record["untyped"].append(repr(exc))
                record["retries"] = c.retries
                record["hedges"] = c.hedges
            outcomes[idx] = record

        with flaky:
            threads = [threading.Thread(target=one_client, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)

        assert len(outcomes) == 16
        # zero unhandled/untyped exceptions anywhere
        untyped = [u for r in outcomes.values() for u in r["untyped"]]
        assert untyped == []
        # retries + hedges bounded by the frozen per-client budget
        for r in outcomes.values():
            assert r["retries"] + r["hedges"] <= budget_cap
        # zero duplicate ingests: every store that exists is exact
        stores = sorted((tmp_path / "store").glob("chaos_*.json"))
        ingested = sum(1 for r in outcomes.values() if r["ingested"])
        assert len(stores) >= ingested
        for path in stores:
            tk = Thicket.load(path)
            assert len(tk.profile) == len(payloads), path.name
        # the fault injector actually injected faults
        assert flaky.to_dict()["injected"] > 0
