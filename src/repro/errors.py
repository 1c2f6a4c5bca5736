"""Typed exception hierarchy for the whole toolkit.

Large campaigns (the paper's 1,903-profile RAJAPerf sweep, §5.1) make
corrupt inputs a statistical certainty, and a raw ``KeyError`` deep in
a reader is useless at that scale: it names neither the file nor the
ingestion stage that failed.  Every error raised by the readers, the
ingestion pipeline, and ensemble composition therefore derives from
:class:`ReproError` and carries

* ``source`` — the offending file path / profile id (``None`` when the
  input was an in-memory object with no useful address), and
* ``stage``  — the pipeline stage that failed (``read``, ``validate``,
  ``build``, or ``compose``).

Hierarchy::

    ReproError
    ├── ReaderError            I/O and JSON-decode failures
    │   └── SchemaError        payload present but structurally invalid
    ├── CompositionError       ensemble-level failures (also ValueError)
    │   └── ProfileConflictError   colliding / unusable profile ids
    ├── PersistenceError       durable-store write/read failures (also ValueError)
    │   └── CorruptStoreError  store exists but fails checksum / structure
    ├── QueryValidationError   a query is statically invalid for a thicket
    │                          (also ValueError)
    ├── ExecutionError         supervised parallel execution failures
    │   ├── TaskTimeoutError       a task exceeded its wall-clock deadline
    │   ├── WorkerCrashError       the worker process died / stopped beating
    │   ├── CircuitOpenError       fast-fail while a circuit breaker is open
    │   └── DeadlineExceededError  the whole run blew its wall budget
    ├── ServeError             analysis-service failures (repro serve)
    │   ├── OverloadedError        admission shed a request (HTTP 429)
    │   ├── NotReadyError          degraded/shedding/draining (HTTP 503)
    │   ├── RequestTimeoutError    a request blew its deadline (HTTP 503)
    │   └── NotFoundError          unknown dataset / route (HTTP 404)
    └── ClientError            resilient-client failures (repro.client)
        ├── TransportError             connection refused / reset / torn
        ├── ServerRejectedError        the server answered with an error
        ├── RetryBudgetExhaustedError  the retry token bucket ran dry
        ├── ClientDeadlineError        the call deadline expired
        └── ClientCircuitOpenError     per-host breaker fast-fail
                                       (also a CircuitOpenError)

``CompositionError`` doubles as a ``ValueError`` so that pre-existing
callers catching ``ValueError`` around :meth:`Thicket.from_caliperreader`
keep working; ``PersistenceError`` does the same for callers catching
``ValueError`` around :meth:`Thicket.from_json` / :func:`load_thicket`.

A typed error crosses a process or a file as one JSON *record*, which
:meth:`ReproError.to_record` writes and :func:`from_record` reads (a
worker's report to the supervisor, a journaled quarantine).  Its keys
are ``error_type`` (the class name), ``error`` (``str(exc)``),
``source``, ``stage`` and ``fields``: every other attribute the
instance carries (``problems``, ``retry_after``, ``status``,
``transient``, …), nested so that a record can share a dict with the
journal's own ``kind``/``key``/``status``.  :func:`from_record` rebuilds the named
class without calling its constructor, so every class rebuilds the
same way; a name that is not a :class:`ReproError` of this module
rebuilds as the caller's ``fallback``.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "ReproError",
    "ReaderError",
    "SchemaError",
    "CompositionError",
    "ProfileConflictError",
    "PersistenceError",
    "CorruptStoreError",
    "QueryValidationError",
    "ExecutionError",
    "TaskTimeoutError",
    "WorkerCrashError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "ServeError",
    "OverloadedError",
    "NotReadyError",
    "RequestTimeoutError",
    "NotFoundError",
    "ClientError",
    "TransportError",
    "ServerRejectedError",
    "RetryBudgetExhaustedError",
    "ClientDeadlineError",
    "ClientCircuitOpenError",
    "from_record",
]


class ReproError(Exception):
    """Base class for every error this toolkit raises on bad input.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    source:
        Path / profile id of the offending input, when known.
    stage:
        Ingestion stage that failed (``read``/``validate``/``build``/
        ``compose``).
    """

    default_stage: str = "ingest"

    def __init__(self, message: str, *, source: Any = None,
                 stage: str | None = None):
        self.source = str(source) if source is not None else None
        self.stage = stage or self.default_stage
        if self.source and self.source not in message:
            message = f"{message} [source: {self.source}]"
        super().__init__(message)

    def to_record(self) -> dict[str, Any]:
        """This error as a JSON-able record; :func:`from_record` is the
        inverse (the module docstring lists the keys)."""
        fields = {k: v for k, v in vars(self).items()
                  if k not in ("source", "stage")}
        return {"error_type": type(self).__name__, "error": str(self),
                "source": self.source, "stage": self.stage,
                "fields": fields}


class ReaderError(ReproError):
    """A profile could not be read: I/O failure or undecodable JSON."""

    default_stage = "read"


class SchemaError(ReaderError):
    """A payload decoded fine but violates the cali-JSON schema."""

    default_stage = "validate"


class CompositionError(ReproError, ValueError):
    """An ensemble could not be composed from the given profiles, or a
    call-graph link would give a node a second parent or a cycle."""

    default_stage = "compose"


class ProfileConflictError(CompositionError):
    """Profile ids collide or cannot be derived (bad ``metadata_key``)."""

    default_stage = "compose"


class PersistenceError(ReproError, ValueError):
    """A durable store (thicket file, frame JSON, checkpoint journal)
    could not be written or read.

    ``source`` carries the store path and ``stage`` the persistence
    stage that failed (``save``/``load``/``journal``).
    """

    default_stage = "persist"


class QueryValidationError(ReproError, ValueError):
    """A call-path query is statically invalid for a given thicket.

    Raised by :func:`repro.query.validate_query` (and therefore by
    :meth:`Thicket.query` with ``validate=True``, the default) *before*
    any path matching runs: unknown metric / metadata column names
    (with did-you-mean suggestions), predicate type mismatches (a
    string operation applied to a float metric), comparisons on
    identifiers never bound in ``MATCH``, and quantifier sequences no
    path in the call tree could ever satisfy.

    ``problems`` lists every violation found (the message joins them);
    ``suggestions`` maps each unknown column name to its nearest valid
    candidates.
    """

    default_stage = "validate"

    def __init__(self, message: str, *,
                 problems: "list[str] | None" = None,
                 suggestions: "dict[str, list[str]] | None" = None,
                 source: Any = None):
        self.problems = list(problems or [message])
        self.suggestions = dict(suggestions or {})
        super().__init__(message, source=source, stage="validate")


class ExecutionError(ReproError):
    """A task failed inside the supervised execution engine.

    Base class for the failures :class:`repro.resilience.SupervisedExecutor`
    attributes to individual tasks: wall-clock timeouts, worker-process
    crashes, circuit-breaker fast-fails, and run-level deadline
    exhaustion.  ``source`` carries the task key (for ingestion, the
    profile path) so a quarantined task is addressable.
    """

    default_stage = "execute"


class TaskTimeoutError(ExecutionError):
    """A task exceeded its per-task wall-clock deadline.

    The supervisor — not the worker — enforces the timeout: the worker
    process is killed and the task is quarantined (or retried, when the
    policy allows), so a single hung read can never stall the run.
    """

    default_stage = "execute"


class WorkerCrashError(ExecutionError):
    """The worker process executing a task died or stopped heartbeating.

    Covers both a hard crash (the child exited without reporting a
    result) and a hang detected by heartbeat staleness; either way the
    task is attributed and the worker replaced.
    """

    default_stage = "execute"


class CircuitOpenError(ExecutionError):
    """A task was failed fast because its circuit breaker is open.

    After ``breaker_threshold`` consecutive failures for the same
    failure domain (for ingestion, the profile's parent directory) the
    breaker opens and further tasks are quarantined immediately instead
    of burning retries against a dead source.
    """

    default_stage = "execute"


class DeadlineExceededError(ExecutionError):
    """The supervised run exhausted its overall wall-clock budget.

    Remaining tasks (queued or in flight) are quarantined with this
    error so the run terminates promptly with full attribution instead
    of overrunning its deadline.
    """

    default_stage = "execute"


class ServeError(ReproError):
    """A request to the analysis service (``repro serve``) failed.

    Every subclass carries the HTTP ``status`` the service maps it to
    and a stable machine-readable ``code`` that clients can branch on
    (``"overloaded"``, ``"not_ready"``, ``"deadline_exceeded"``, …) —
    the serving layer never surfaces a bare 500 without a code.
    """

    default_stage = "serve"
    status: int = 500
    code: str = "internal"


class OverloadedError(ServeError):
    """Admission control shed this request (HTTP 429).

    Raised when the token-bucket rate limiter is empty, the worker
    pool's bounded queue is full, or the caller's per-client circuit
    breaker is open.  ``retry_after`` is the server's estimate
    (seconds) of when capacity returns; it becomes the
    ``Retry-After`` response header.  ``reason`` names the shed path
    (``rate_limited``/``queue_full``/``circuit_open``).
    """

    default_stage = "admit"
    status = 429
    code = "overloaded"

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 reason: str = "overloaded", source: Any = None):
        self.retry_after = float(retry_after)
        self.reason = str(reason)
        self.code = self.reason
        super().__init__(message, source=source, stage="admit")


class NotReadyError(ServeError):
    """The service cannot take this work right now (HTTP 503).

    Raised while draining for shutdown, or when the memory-pressure
    state machine has degraded past the point where this endpoint is
    allowed (ingest under ``degraded``, everything heavy under
    ``shedding``).  ``reason`` carries the state that refused the
    request.
    """

    default_stage = "serve"
    status = 503
    code = "not_ready"

    def __init__(self, message: str, *, retry_after: float = 5.0,
                 reason: str = "not_ready", source: Any = None):
        self.retry_after = float(retry_after)
        self.reason = str(reason)
        self.code = self.reason
        super().__init__(message, source=source, stage="serve")


class RequestTimeoutError(ServeError):
    """A request exceeded its per-request deadline (HTTP 503).

    The supervising waiter — not the worker — enforces the deadline:
    the request is failed fast and attributed, the abandoned worker is
    replaced by the watchdog, and the client may retry after
    ``retry_after`` seconds.
    """

    default_stage = "execute"
    status = 503
    code = "deadline_exceeded"

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 source: Any = None):
        self.retry_after = float(retry_after)
        super().__init__(message, source=source, stage="execute")


class NotFoundError(ServeError):
    """The request names a dataset or route the service does not have
    (HTTP 404)."""

    default_stage = "serve"
    status = 404
    code = "not_found"


class ClientError(ReproError):
    """A request made through :class:`repro.client.ReproClient` failed.

    The client-side mirror of :class:`ServeError`: every way a remote
    call can fail — the wire dropped, the server said no, the retry
    budget ran dry, the deadline expired — surfaces as one of these
    subclasses, so callers never see a bare ``OSError`` or
    ``http.client`` exception.  ``source`` carries the request target
    (``METHOD host:port/path``) and ``request_id`` the server-assigned
    correlation id when one was received, so a client-side failure is
    joinable with the server's logs and traces.
    """

    default_stage = "client"

    def __init__(self, message: str, *, source: Any = None,
                 stage: str | None = None,
                 request_id: "str | None" = None):
        self.request_id = request_id
        super().__init__(message, source=source, stage=stage)


class TransportError(ClientError):
    """The connection itself failed: refused, reset, or torn mid-body.

    Wraps the underlying ``OSError`` / ``http.client`` failure (kept as
    ``__cause__``).  Transport failures on idempotent or
    idempotency-keyed requests are retried against the budget; on
    unkeyed unsafe requests they are surfaced immediately.
    """

    default_stage = "transport"


class ServerRejectedError(ClientError):
    """The server answered with an error envelope (HTTP >= 400).

    Carries the HTTP ``status``, the machine-readable envelope
    ``code``, the server's ``retry_after`` hint when one was sent, and
    the echoed ``request_id``.  Retryable statuses (429/500/502/503/
    504) are consumed by the retry loop; what ultimately reaches the
    caller is either a non-retryable rejection (400/404) or the final
    rejection after the budget/deadline ran out.
    """

    default_stage = "client"

    def __init__(self, message: str, *, status: int, code: str = "internal",
                 retry_after: "float | None" = None, source: Any = None,
                 request_id: "str | None" = None):
        self.status = int(status)
        self.code = str(code)
        self.retry_after = retry_after
        super().__init__(message, source=source, request_id=request_id)


class RetryBudgetExhaustedError(ClientError):
    """The client's token-bucket retry budget ran dry (no retry storms).

    Raised instead of launching one more retry: when every caller in a
    fleet retries at once, the retries themselves become the overload.
    The bucket refills at ``ClientPolicy.retry_budget_rate`` tokens per
    second up to ``retry_budget_capacity``, so a short blip retries
    freely while a sustained outage degrades into fast typed failures.
    ``__cause__`` carries the error that wanted the retry.
    """

    default_stage = "retry"


class ClientDeadlineError(ClientError):
    """The per-call deadline expired client-side.

    Raised before wasting a network round-trip the budget can no longer
    pay for: either the deadline expired between retries, or less than
    a millisecond of it remains for the next attempt.
    ``__cause__`` carries the last attempt's failure when one happened.
    """

    default_stage = "deadline"


class ClientCircuitOpenError(ClientError, CircuitOpenError):
    """The per-host circuit breaker is open: fail fast, no connection.

    A host that keeps failing trips its breaker
    (:class:`repro.resilience.CircuitBreaker` keyed by ``host:port``),
    and further calls fail immediately for the cooldown instead of
    burning the retry budget against a dead server.  Doubly typed: both
    a :class:`ClientError` (the client contract) and a
    :class:`CircuitOpenError` (the resilience contract).
    """

    default_stage = "client"


class CorruptStoreError(PersistenceError):
    """A store file exists but fails verification.

    Raised when a saved thicket (or checkpoint payload) is undecodable,
    fails its embedded content checksum, names an unknown format, or is
    structurally inconsistent under ``load_thicket(..., verify=True)``.
    Never a bare ``json.JSONDecodeError``/``KeyError``: the message
    says what was wrong and ``source`` names the offending file.
    """

    default_stage = "verify"


def from_record(record: Mapping[str, Any], *,
                fallback: type[ReproError] = ReproError) -> ReproError:
    """Rebuild the error a :meth:`ReproError.to_record` record names,
    as *fallback* when ``error_type`` is not a :class:`ReproError` of
    this module; a missing ``stage`` is the class default."""
    cls = globals().get(str(record.get("error_type")))
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = fallback
    err = cls.__new__(cls)
    Exception.__init__(err, str(record.get("error", "")))
    source = record.get("source")
    err.source = str(source) if source is not None else None
    err.stage = record.get("stage") or cls.default_stage
    err.__dict__.update(record.get("fields") or {})
    return err
