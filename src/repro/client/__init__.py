"""End-to-end resilient access to a ``repro serve`` endpoint.

The :mod:`repro.client` package is the *only* sanctioned way for repro
code to make outbound HTTP calls (lint rule RPR011 enforces this): it
packages deadline propagation, budgeted retries, hedged reads,
idempotency keys, and per-host circuit breaking behind one typed API.

Entry points
------------
:class:`ReproClient`
    The client itself — ``with ReproClient(url) as c: c.query(...)``.
:class:`ClientPolicy` / :data:`DEFAULT_CLIENT_POLICY`
    Frozen dataclass of every resilience knob.

Retry amplification is bounded by a
:class:`~repro.resilience.TokenBucket`, the same bucket the server's
admission controller sheds with; ``ReproClient.to_dict()["budget"]``
reports its spend.  The package imports nothing from
:mod:`repro.serve`.

The server-side halves of the contract live in
:mod:`repro.serve.idempotency` (replay cache) and
:class:`repro.serve.AnalysisService` (deadline admission); the shared
header names are :data:`~repro.client.client.DEADLINE_HEADER`,
:data:`~repro.client.client.IDEMPOTENCY_HEADER`, and
:data:`~repro.client.client.REQUEST_ID_HEADER`.
"""

from .client import (
    DEADLINE_HEADER,
    IDEMPOTENCY_HEADER,
    REQUEST_ID_HEADER,
    ClientResponse,
    ReproClient,
)
from .policy import DEFAULT_CLIENT_POLICY, RETRYABLE_STATUSES, ClientPolicy

__all__ = [
    "ReproClient",
    "ClientResponse",
    "ClientPolicy",
    "DEFAULT_CLIENT_POLICY",
    "RETRYABLE_STATUSES",
    "DEADLINE_HEADER",
    "IDEMPOTENCY_HEADER",
    "REQUEST_ID_HEADER",
]
