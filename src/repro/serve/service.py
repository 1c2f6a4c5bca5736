"""The analysis service: endpoint logic, caching, and degradation.

:class:`AnalysisService` is the transport-free heart of ``repro
serve``: it owns the loaded thickets, runs every endpoint through the
admission → supervision → degradation pipeline, and maps exceptions to
typed JSON error envelopes.  The HTTP layer
(:mod:`repro.serve.http`) is a thin adapter over
:meth:`AnalysisService.dispatch`, so every behaviour — shedding,
deadlines, approximate degraded stats, drain semantics — is testable
without opening a socket.

Endpoints
---------
``GET /healthz``
    Liveness: 200 whenever the process can answer at all.
``GET /readyz``
    Readiness: 200 while the service should receive traffic; 503
    (with the pressure snapshot) while shedding or draining.
``GET /v1/datasets``
    Names of the thicket stores under the served directory.
``GET /v1/metrics``
    The metrics registry snapshot (counters/gauges/histograms).
``POST /v1/query``
    Run a string-dialect query against a dataset.
``POST /v1/stats``
    Aggregate statistics; exact normally, approximate under memory
    pressure (flagged ``"approximate": true``).
``POST /v1/ingest``
    Add profile payloads as a new dataset store; refused under
    memory pressure.

Work endpoints (query/stats/ingest) are admitted per client, executed
on the supervised worker pool under the request deadline, and the
outcome is recorded into the client's circuit breaker.  Every error —
shed, timeout, bad query, internal bug — leaves as a JSON body
``{"error": {"code", "message", "request_id", ...}}`` with the right
status code; nothing escapes as a raw traceback.

The service also implements the server half of the
:mod:`repro.client` resilience contract:

* every request is assigned a **request id**, echoed as the
  ``X-Repro-Request-Id`` header (and in error envelopes) so a client
  retry can be correlated with the server-side execution it repeats;
* a propagated ``X-Repro-Deadline-Ms`` budget shrinks the effective
  worker deadline to ``min(request_timeout, remaining budget)``, and
  work whose budget is already spent is refused *before* admission
  with a typed 504 (counter ``serve.deadline.expired``);
* requests carrying ``X-Repro-Idempotency-Key`` run through the
  :class:`~repro.serve.idempotency.IdempotencyCache`: a retried
  delivery replays the committed result (``X-Repro-Idempotent-Replay:
  1``) and concurrent duplicates coalesce onto one execution.
"""

from __future__ import annotations

import gc
import re
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..core.thicket import Thicket
from ..errors import (
    CorruptStoreError,
    NotFoundError,
    NotReadyError,
    ReproError,
    RequestTimeoutError,
    ServeError,
)
from ..obs import counter as obs_counter
from ..obs import get_telemetry
from ..obs import observe as obs_observe
from ..obs import span as obs_span
from .admission import AdmissionController
from .idempotency import IdempotencyCache
from .pressure import PressureGovernor, STATE_DEGRADED, STATE_SHEDDING
from .workers import WorkerPool

__all__ = ["AnalysisService", "error_payload"]

#: request headers the resilience contract is carried on
DEADLINE_HEADER = "x-repro-deadline-ms"
IDEMPOTENCY_HEADER = "x-repro-idempotency-key"
REQUEST_ID_HEADER = "X-Repro-Request-Id"
REPLAY_HEADER = "X-Repro-Idempotent-Replay"

#: dataset names must be safe as file stems under the store directory
_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

_RESULT_CACHE_CAP = 128

#: statistics the /v1/stats endpoint may be asked to compute
_STAT_FNS = ("mean", "median", "minimum", "maximum", "std", "variance")


def error_payload(exc: BaseException,
                  request_id: str | None = None) -> tuple[int, dict, dict]:
    """Map *exc* to ``(status, json_body, extra_headers)``.

    This is the single exception→response mapping the whole serve
    subsystem funnels through (lint rule RPR009 enforces that serve
    handlers call it instead of improvising): typed
    :class:`~repro.errors.ServeError` subclasses carry their own
    status/code/Retry-After; validation-class errors become 400s; and
    anything unrecognised becomes an opaque 500 ``internal`` envelope
    so no traceback ever reaches a client.  When *request_id* is given
    it rides in the envelope and as ``X-Repro-Request-Id`` so the
    failure can be found in server traces.
    """
    headers: dict[str, str] = {}
    if isinstance(exc, ServeError):
        status, code = exc.status, exc.code
        retry = getattr(exc, "retry_after", None)
        if retry is not None:
            headers["Retry-After"] = f"{retry:g}"
    elif isinstance(exc, CorruptStoreError):
        # the server's store is bad, not the client's request
        status, code = 500, "corrupt_store"
    elif isinstance(exc, (ReproError, ValueError, TypeError, KeyError)):
        # bad request content: invalid query, unknown column, schema
        # violation in an uploaded profile, malformed JSON field...
        status, code = 400, "bad_request"
    else:
        status, code = 500, "internal"
    message = str(exc) if status < 500 or isinstance(exc, ServeError) \
        else f"internal error ({type(exc).__name__})"
    body: dict[str, Any] = {
        "error": {
            "code": code,
            "message": message,
            "type": type(exc).__name__,
        }
    }
    if "Retry-After" in headers:
        body["error"]["retry_after"] = float(headers["Retry-After"])
    if request_id is not None:
        body["error"]["request_id"] = request_id
        headers[REQUEST_ID_HEADER] = request_id
    return status, body, headers


@dataclass
class _RequestContext:
    """Per-request resilience envelope parsed from transport headers."""

    request_id: str
    deadline: float | None = None  # remaining budget in seconds
    idempotency_key: str | None = None


class AnalysisService:
    """Transport-free request broker over a directory of thicket stores.

    Parameters
    ----------
    store_dir:
        Directory of ``<dataset>.json`` checksummed thicket stores
        (created if missing).
    admission:
        The :class:`~repro.serve.admission.AdmissionController` in
        front of work endpoints (a default one is built if omitted).
    pool:
        The supervised :class:`~repro.serve.workers.WorkerPool`
        executing request bodies (a default one is built if omitted).
    governor:
        Optional :class:`~repro.serve.pressure.PressureGovernor`; when
        given, its transitions drive cache eviction and degraded
        behaviour (the service installs itself as ``on_transition``).
    request_timeout:
        Per-request deadline in seconds (the server-side ceiling; a
        propagated client budget can only shrink it).
    idempotency:
        The :class:`~repro.serve.idempotency.IdempotencyCache` backing
        keyed-request replay (a default one is built if omitted).
    request_id_factory:
        Generator for per-request correlation ids (injectable for
        deterministic tests; defaults to random UUID prefixes).
    clock:
        Injectable monotonic clock for latency accounting.
    """

    def __init__(self, store_dir: str | Path, *,
                 admission: AdmissionController | None = None,
                 pool: WorkerPool | None = None,
                 governor: PressureGovernor | None = None,
                 request_timeout: float = 30.0,
                 idempotency: IdempotencyCache | None = None,
                 request_id_factory: Callable[[], str] | None = None,
                 clock: Callable[[], float] = time.monotonic):
        if request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {request_timeout}")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.admission = admission or AdmissionController()
        self.pool = pool or WorkerPool()
        self.governor = governor
        if governor is not None:
            governor.on_transition = self._on_pressure
        self.request_timeout = float(request_timeout)
        self.idempotency = idempotency or IdempotencyCache(clock=clock)
        self._request_id_factory = request_id_factory \
            or (lambda: uuid.uuid4().hex[:16])
        self.clock = clock
        self.draining = threading.Event()
        self._cache_lock = threading.Lock()
        self._thickets: dict[str, Thicket] = {}
        self._results: "OrderedDict[str, dict]" = OrderedDict()
        self.requests = 0

    # -- degradation hooks ---------------------------------------------
    def _on_pressure(self, old: str, new: str, rss: float) -> None:
        """Governor transition hook: shed memory before the kernel does."""
        if new == STATE_DEGRADED:
            self.evict_results()
        elif new == STATE_SHEDDING:
            self.evict_results()
            self.evict_thickets()
            gc.collect()

    def evict_results(self) -> int:
        """Drop the query-result cache; returns the entry count dropped."""
        with self._cache_lock:
            n = len(self._results)
            self._results.clear()
        if n:
            obs_counter("serve.cache.evictions", float(n))
        return n

    def evict_thickets(self) -> int:
        """Drop every loaded thicket; returns the entry count dropped."""
        with self._cache_lock:
            n = len(self._thickets)
            self._thickets.clear()
        if n:
            obs_counter("serve.cache.evictions", float(n))
        return n

    def _degraded(self) -> bool:
        return (self.governor is not None
                and self.governor.at_least(STATE_DEGRADED))

    def _require_capacity(self, endpoint: str) -> None:
        """Refuse work while draining or shedding (typed 503)."""
        if self.draining.is_set():
            raise NotReadyError(
                "service is draining for shutdown",
                reason="draining", retry_after=5.0, source=endpoint)
        if self.governor is not None \
                and self.governor.at_least(STATE_SHEDDING):
            raise NotReadyError(
                "memory pressure: shedding all analysis work",
                reason="memory_pressure", retry_after=5.0, source=endpoint)

    # -- dataset access -------------------------------------------------
    @staticmethod
    def check_name(name: Any) -> str:
        """Validate a dataset name (it becomes a file stem)."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(
                f"invalid dataset name {name!r}: expected "
                f"[A-Za-z0-9_.-]+")
        return name

    def datasets(self) -> list[str]:
        """Sorted dataset names present in the store directory."""
        return sorted(p.stem for p in self.store_dir.glob("*.json"))

    def load(self, name: str) -> Thicket:
        """Load (and cache) the named thicket store."""
        self.check_name(name)
        with self._cache_lock:
            tk = self._thickets.get(name)
        if tk is not None:
            obs_counter("serve.cache.hits")
            return tk
        path = self.store_dir / f"{name}.json"
        if not path.exists():
            raise NotFoundError(f"no dataset named {name!r}", source=name)
        obs_counter("serve.cache.misses")
        tk = Thicket.load(path)
        # under pressure, serve the request but do not grow the cache
        if not self._degraded():
            with self._cache_lock:
                self._thickets[name] = tk
        return tk

    # -- request bodies -------------------------------------------------
    def _field(self, payload: dict, key: str, kind: type,
               default: Any = None, required: bool = False) -> Any:
        value = payload.get(key, default)
        if required and value is None:
            raise ValueError(f"missing required field {key!r}")
        if value is not None and not isinstance(value, kind):
            raise ValueError(
                f"field {key!r} must be {kind.__name__}, "
                f"got {type(value).__name__}")
        return value

    def _do_query(self, payload: dict) -> dict:
        name = self.check_name(self._field(payload, "dataset", str,
                                           required=True))
        expr = self._field(payload, "query", str, required=True)
        squash = bool(payload.get("squash", True))
        cache_key = f"{name}\x00{squash}\x00{expr}"
        with self._cache_lock:
            hit = self._results.get(cache_key)
            if hit is not None:
                self._results.move_to_end(cache_key)
        if hit is not None:
            obs_counter("serve.cache.hits")
            return hit
        tk = self.load(name)
        sub = tk.query(expr, squash=squash)
        nodes = sorted({n.frame.name for n in sub.graph.traverse()})
        result = {
            "dataset": name,
            "matched_nodes": len(sub.graph),
            "node_names": nodes,
            "profiles": len(sub.profile),
            "rows": len(sub.dataframe),
        }
        if not self._degraded():
            with self._cache_lock:
                self._results[cache_key] = result
                while len(self._results) > _RESULT_CACHE_CAP:
                    self._results.popitem(last=False)
        return result

    def _do_stats(self, payload: dict) -> dict:
        from ..core import stats as stats_mod

        name = self.check_name(self._field(payload, "dataset", str,
                                           required=True))
        columns = self._field(payload, "columns", list)
        metrics = self._field(payload, "metrics", list) or ["mean"]
        for m in metrics:
            if m not in _STAT_FNS:
                raise ValueError(
                    f"unknown statistic {m!r}; expected one of "
                    f"{sorted(_STAT_FNS)}")
        tk = self.load(name)
        if self._degraded():
            # approximate mode: no per-node statsframe work, just the
            # cheap whole-dataset shape summary already in memory
            obs_counter("serve.stats.approximate")
            return {
                "dataset": name,
                "approximate": True,
                "nodes": len(tk.graph),
                "profiles": len(tk.profile),
                "rows": len(tk.dataframe),
                "metrics_available": sorted(
                    str(m) for m in tk.exc_metrics + tk.inc_metrics),
            }
        work = tk.copy()  # stats mutate the statsframe; never the cache
        created: dict[str, list] = {}
        table: dict[str, dict] = {}
        nodes = list(work.statsframe.index.values)
        for m in metrics:
            cols = getattr(stats_mod, m)(work, columns)
            created[m] = [str(c) for c in cols]
            for col in cols:
                values = work.statsframe.column(col)
                for node, v in zip(nodes, values):
                    v = float(v)
                    table.setdefault(node.frame.name, {})[str(col)] = (
                        None if v != v else v)  # NaN is not valid JSON
        return {
            "dataset": name,
            "approximate": False,
            "columns": created,
            "nodes": table,
        }

    def _do_ingest(self, payload: dict) -> dict:
        from ..ingest import load_ensemble

        name = self.check_name(self._field(payload, "dataset", str,
                                           required=True))
        profiles = self._field(payload, "profiles", list, required=True)
        if not profiles:
            raise ValueError("field 'profiles' must be a non-empty list")
        if self._degraded():
            raise NotReadyError(
                "memory pressure: ingest refused while degraded",
                reason="memory_pressure", retry_after=10.0, source=name)
        overwrite = bool(payload.get("overwrite", False))
        path = self.store_dir / f"{name}.json"
        if path.exists() and not overwrite:
            raise ValueError(
                f"dataset {name!r} already exists (pass overwrite)")
        result = load_ensemble(profiles, on_error="strict")
        tk = result.thicket
        tk.save(path)  # atomic + checksummed: kill -9-safe by design
        with self._cache_lock:
            self._thickets[name] = tk
            self._results.clear()
        obs_counter("serve.ingests")
        return {
            "dataset": name,
            "profiles": len(tk.profile),
            "nodes": len(tk.graph),
            "path": str(path),
        }

    # -- read-only system endpoints ------------------------------------
    def healthz(self) -> tuple[int, dict]:
        """Liveness: the process is up and answering."""
        return 200, {"status": "ok"}

    def readyz(self) -> tuple[int, dict]:
        """Readiness: should a load balancer route traffic here?"""
        body: dict[str, Any] = {
            "draining": self.draining.is_set(),
            "inflight": self.pool.inflight,
            "datasets": len(self.datasets()),
        }
        if self.governor is not None:
            body["pressure"] = self.governor.to_dict()
        ready = not self.draining.is_set() and (
            self.governor is None
            or not self.governor.at_least(STATE_SHEDDING))
        body["status"] = "ok" if ready else "unavailable"
        return (200 if ready else 503), body

    def metrics(self) -> tuple[int, dict]:
        """Snapshot of the metrics registry."""
        return 200, get_telemetry().metrics.snapshot()

    # -- dispatch -------------------------------------------------------
    def _admit_and_run(self, endpoint: str, client: str,
                       fn: Callable[[], dict],
                       ctx: _RequestContext | None = None
                       ) -> tuple[dict, bool]:
        """Admit, execute (or replay) one work request.

        Returns ``(result, replayed)``.  The effective deadline is the
        server ceiling shrunk by any propagated client budget; keyed
        requests route through the idempotency cache so a redelivered
        request replays instead of re-executing.
        """
        self._require_capacity(endpoint)
        timeout = self.request_timeout
        key = None
        if ctx is not None:
            key = ctx.idempotency_key
            if ctx.deadline is not None:
                timeout = min(timeout, ctx.deadline)
        self.admission.admit(client)
        try:
            result, replayed = self.idempotency.execute(
                key, lambda: self.pool.run(
                    fn, timeout=timeout, label=endpoint))
        except BaseException:
            # failed requests (timeouts, bad queries, internal errors)
            # count against this client's breaker, then propagate to
            # the error mapper
            self.admission.breaker.record_failure(client)
            raise
        self.admission.breaker.record_success(client)
        return result, replayed

    @staticmethod
    def _parse_context(request_id: str,
                       headers: dict | None) -> _RequestContext:
        """Extract the resilience envelope from transport headers."""
        ctx = _RequestContext(request_id=request_id)
        if not headers:
            return ctx
        lowered = {str(k).lower(): v for k, v in headers.items()}
        raw_ms = lowered.get(DEADLINE_HEADER)
        if raw_ms is not None:
            try:
                ctx.deadline = int(raw_ms) / 1000.0
            except (TypeError, ValueError):
                ctx.deadline = None  # unparseable budgets are ignored
        key = lowered.get(IDEMPOTENCY_HEADER)
        if key:
            ctx.idempotency_key = str(key)[:128]
        return ctx

    def dispatch(self, method: str, path: str, payload: dict | None,
                 client: str,
                 headers: dict | None = None) -> tuple[int, dict, dict]:
        """Route one request; returns ``(status, body, headers)``.

        Never raises: every exception is converted through
        :func:`error_payload` into a typed JSON error response.
        *headers* (optional, case-insensitive) carries the resilience
        contract: ``X-Repro-Deadline-Ms`` (remaining client budget —
        expired work is refused before admission) and
        ``X-Repro-Idempotency-Key`` (replay cache / duplicate
        coalescing).  Every response carries ``X-Repro-Request-Id``.
        """
        self.requests += 1
        start = self.clock()
        ctx = self._parse_context(self._request_id_factory(), headers)
        try:
            with obs_span("serve.request"):
                if ctx.deadline is not None and ctx.deadline <= 0:
                    # the client's budget is already spent: refuse
                    # before admission rather than queueing work whose
                    # answer nobody will read
                    obs_counter("serve.deadline.expired")
                    raise RequestTimeoutError(
                        f"propagated deadline already expired for "
                        f"{method} {path}", source=path)
                status, body, resp_headers = self._route(
                    method, path, payload or {}, client, ctx)
                resp_headers.setdefault(REQUEST_ID_HEADER,
                                        ctx.request_id)
        except BaseException as exc:  # pragma: service boundary — every
            # failure is mapped to a typed JSON error envelope here
            status, body, resp_headers = error_payload(
                exc, request_id=ctx.request_id)
        obs_observe("serve.latency_seconds", self.clock() - start)
        obs_counter("serve.requests")
        if status >= 500:
            obs_counter("serve.errors")
        elif status == 429:
            obs_counter("serve.sheds")
        return status, body, resp_headers

    def _route(self, method: str, path: str, payload: dict,
               client: str,
               ctx: _RequestContext | None = None
               ) -> tuple[int, dict, dict]:
        if method == "GET":
            # keyed GETs (the two legs of a client's hedged read share
            # one idempotency key) coalesce onto a single execution
            key = ctx.idempotency_key if ctx is not None else None
            result, replayed = self.idempotency.execute(
                key, lambda: self._route_get(path))
            status, body, headers = result
            if replayed:
                headers = dict(headers)
                headers[REPLAY_HEADER] = "1"
            return status, body, headers
        if method == "POST":
            if path == "/v1/query":
                with obs_span("serve.query"):
                    body, replayed = self._admit_and_run(
                        "query", client,
                        lambda: self._do_query(payload), ctx)
                return 200, body, self._replay_headers(replayed)
            if path == "/v1/stats":
                with obs_span("serve.stats"):
                    body, replayed = self._admit_and_run(
                        "stats", client,
                        lambda: self._do_stats(payload), ctx)
                return 200, body, self._replay_headers(replayed)
            if path == "/v1/ingest":
                with obs_span("serve.ingest"):
                    body, replayed = self._admit_and_run(
                        "ingest", client,
                        lambda: self._do_ingest(payload), ctx)
                return 200, body, self._replay_headers(replayed)
            raise NotFoundError(f"no such endpoint: POST {path}",
                                source=path)
        raise NotFoundError(f"unsupported method {method}", source=path)

    def _route_get(self, path: str) -> tuple[int, dict, dict]:
        if path == "/healthz":
            status, body = self.healthz()
            return status, body, {}
        if path == "/readyz":
            status, body = self.readyz()
            headers = {"Retry-After": "5"} if status == 503 else {}
            return status, body, headers
        if path == "/v1/metrics":
            status, body = self.metrics()
            return status, body, {}
        if path == "/v1/datasets":
            return 200, {"datasets": self.datasets()}, {}
        raise NotFoundError(f"no such endpoint: GET {path}", source=path)

    @staticmethod
    def _replay_headers(replayed: bool) -> dict:
        return {REPLAY_HEADER: "1"} if replayed else {}

    # -- lifecycle -----------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting work (readyz goes 503; work endpoints shed)."""
        self.draining.set()
        obs_counter("serve.drains")

    def drain(self, deadline: float = 10.0) -> bool:
        """Refuse new work, then wait for in-flight work to finish."""
        self.begin_drain()
        return self.pool.drain(deadline)

    def shutdown(self) -> None:
        """Drain-free teardown of pool and governor threads."""
        self.pool.shutdown()
        if self.governor is not None:
            self.governor.stop()
