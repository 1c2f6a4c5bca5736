"""``repro.serve`` — a supervised analysis service that degrades, not dies.

The serving counterpart to the batch CLI: ``repro serve --store DIR``
exposes the thicket stores in a directory over a zero-dependency HTTP
JSON API, built from five robustness pillars:

* **admission control** (:mod:`~repro.serve.admission`) — per-client
  circuit breakers and a token-bucket rate limiter in front of every
  work endpoint; overload sheds fast with typed 429s and honest
  ``Retry-After`` hints;
* **supervised execution** (:mod:`~repro.serve.workers`) — request
  bodies run on a watchdog-supervised worker pool with per-request
  deadlines; its bounded queue is the one bound on work in flight (a
  full queue sheds with a typed 429), and a hung query is abandoned,
  attributed, and its worker replaced;
* **memory-pressure degradation** (:mod:`~repro.serve.pressure`) —
  an RSS-watermark state machine (ok → degraded → shedding) that
  evicts caches, switches stats to approximate summaries, refuses
  ingests, and flips ``/readyz`` before the OOM killer gets a vote;
* **crash-only lifecycle** (:mod:`~repro.serve.http`) — SIGTERM
  drains gracefully under a :class:`~repro.resilience.SignalGuard`;
  ``kill -9`` is recoverable by construction because every store
  write is atomic and checksummed;
* **end-to-end resilience contract** (:mod:`~repro.serve.idempotency`
  plus :class:`~repro.serve.service.AnalysisService`) — the server
  half of :mod:`repro.client`: propagated ``X-Repro-Deadline-Ms``
  budgets shrink worker deadlines and expired work is refused before
  admission; ``X-Repro-Idempotency-Key`` requests replay committed
  results and coalesce concurrent duplicates, so client retries are
  exactly-once in effect; every response carries
  ``X-Repro-Request-Id``.

:class:`~repro.serve.service.AnalysisService` is the transport-free
core (fully testable without sockets);
:class:`~repro.serve.http.ReproServer` is the thin stdlib HTTP shell.
"""

from __future__ import annotations

from .admission import AdmissionController
from .http import ReproServer, make_handler
from .idempotency import IdempotencyCache
from .pressure import (
    PressureGovernor,
    STATE_DEGRADED,
    STATE_OK,
    STATE_ORDER,
    STATE_SHEDDING,
)
from .service import AnalysisService, error_payload
from .workers import WorkerPool, WorkItem

__all__ = [
    "AdmissionController",
    "WorkerPool", "WorkItem",
    "PressureGovernor", "STATE_OK", "STATE_DEGRADED", "STATE_SHEDDING",
    "STATE_ORDER",
    "AnalysisService", "error_payload",
    "IdempotencyCache",
    "ReproServer", "make_handler",
]
