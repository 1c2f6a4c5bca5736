"""A deterministic misbehaving server for client-resilience drills.

:class:`FlakyServer` is the serving counterpart of the campaign fault
injectors: a real HTTP front over a real
:class:`~repro.serve.AnalysisService` that misbehaves on a seeded
schedule.  Point a :class:`~repro.client.ReproClient` at it and every
resilience mechanism gets exercised against realistic transport-level
faults rather than mocked exceptions:

``drop_connection``
    The socket closes without a response byte — the client sees a
    transport error mid-exchange (retryable, budget-gated).
``http_500``
    A well-formed 500 ``internal`` envelope without executing the
    request (retryable status; on keyed requests the retry must
    re-execute because failures are not cached).
``slow_body``
    The response is computed but its body stalls for ``slow_delay``
    seconds before being written — the tail-latency straggler that
    hedged reads exist to beat.
``duplicate_delivery``
    The request is dispatched to the service **twice** before one
    response is returned, simulating an at-least-once upstream
    redelivering a message.  With an idempotency key the second
    dispatch replays; without one, work double-executes — exactly the
    bug the key exists to prevent.

Fault selection is driven by one ``random.Random(seed)`` shared across
handler threads (under a lock), so a given seed yields one reproducible
fault schedule for a serial request sequence.  Per-mode tallies are
kept in :attr:`FlakyServer.faults` and exported via :meth:`to_dict`.
"""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler
from typing import Any

from ..obs import counter as obs_counter
from ..serve.http import _HTTPServer
from ..serve.service import AnalysisService, error_payload

__all__ = ["FlakyServer", "FLAKY_MODES"]

#: fault modes, in the order the seeded RNG draws among them
FLAKY_MODES = ("drop_connection", "http_500", "slow_body",
               "duplicate_delivery")

_MAX_BODY_BYTES = 8 * 1024 * 1024


def _make_flaky_handler(server: "FlakyServer"):
    """Build the fault-injecting handler class bound to *server*."""

    class _FlakyHandler(BaseHTTPRequestHandler):
        """One exchange that may be sabotaged before/around dispatch."""

        protocol_version = "HTTP/1.1"
        server_version = "repro-flaky"

        def log_message(self, format: str, *args: Any) -> None:
            """Silence the default stderr access log."""

        def _client_key(self) -> str:
            header = self.headers.get("X-Client-Id")
            if header:
                return header.strip()[:128]
            return self.client_address[0]

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0 or length > _MAX_BODY_BYTES:
                raise ValueError(
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _send_json(self, status: int, body: dict,
                       headers: dict | None = None,
                       stall: float = 0.0) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                if stall > 0.0:
                    # headers are out, the body dawdles: the straggler
                    # shape hedged reads are built to route around
                    server.stalled.wait(stall)
                self.wfile.write(data)
            except OSError:  # pragma: client went away mid-write (a
                # hedge loser being cancelled does exactly this) — it
                # must not take the handler thread down
                pass

        def _handle(self, method: str, payload: dict | None) -> None:
            fault = server.draw_fault()
            if fault == "drop_connection":
                # no status line, no body: just a dead socket
                self.close_connection = True
                try:
                    self.connection.close()
                except OSError:  # pragma: already torn down
                    pass
                return
            if fault == "http_500":
                self._send_json(500, {
                    "error": {"code": "internal",
                              "message": "injected fault",
                              "type": "FlakyServerFault"}})
                return
            headers_in = dict(self.headers.items())
            if fault == "duplicate_delivery":
                # at-least-once upstream: the same request (same
                # idempotency key, same payload) lands twice
                server.service.dispatch(method, self.path, payload,
                                        self._client_key(), headers_in)
            status, body, headers = server.service.dispatch(
                method, self.path, payload, self._client_key(),
                headers_in)
            stall = server.slow_delay if fault == "slow_body" else 0.0
            self._send_json(status, body, headers, stall=stall)

        def do_GET(self) -> None:  # noqa: N802 (http.server contract)
            try:
                self._handle("GET", None)
            except Exception as exc:  # pragma: transport boundary —
                # even the chaos server answers with typed envelopes
                self._send_json(*error_payload(exc))

        def do_POST(self) -> None:  # noqa: N802 (http.server contract)
            try:
                self._handle("POST", self._read_body())
            except Exception as exc:  # pragma: transport boundary —
                # bad JSON and surprises map to typed envelopes
                self._send_json(*error_payload(exc))

    return _FlakyHandler


class FlakyServer:
    """A real service behind a fault-injecting HTTP front.

    Parameters
    ----------
    service:
        The (healthy) :class:`~repro.serve.AnalysisService` to serve.
    host / port:
        Bind address (``port=0`` picks a free port).
    fault_rate:
        Probability in ``[0, 1]`` that a request draws a fault.
    modes:
        Subset of :data:`FLAKY_MODES` to draw from (uniformly).
    seed:
        Seed for the shared fault RNG — same seed, same schedule.
    slow_delay:
        Body stall in seconds for ``slow_body`` faults.
    """

    def __init__(self, service: AnalysisService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 fault_rate: float = 0.3,
                 modes: tuple = FLAKY_MODES,
                 seed: int = 0, slow_delay: float = 0.5):
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate {fault_rate} outside [0, 1]")
        unknown = [m for m in modes if m not in FLAKY_MODES]
        if unknown:
            raise ValueError(
                f"unknown fault modes {unknown}; expected a subset of "
                f"{list(FLAKY_MODES)}")
        if not modes:
            raise ValueError("modes must not be empty")
        self.service = service
        self.fault_rate = float(fault_rate)
        self.modes = tuple(modes)
        self.slow_delay = float(slow_delay)
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self.stalled = threading.Event()  # set on close: aborts stalls
        self.requests = 0
        self.faults: dict[str, int] = {m: 0 for m in FLAKY_MODES}
        self.httpd = _HTTPServer((host, port), _make_flaky_handler(self))
        self.httpd.daemon_threads = True
        self._serve_thread: threading.Thread | None = None

    def draw_fault(self) -> str | None:
        """Seeded per-request fault decision (None: behave)."""
        with self._rng_lock:
            self.requests += 1
            if self._rng.random() >= self.fault_rate:
                return None
            mode = self._rng.choice(self.modes)
            self.faults[mode] += 1
        obs_counter("workloads.flaky.faults")
        return mode

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        """``http://host:port`` base URL for a client."""
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "FlakyServer":
        """Serve in a background thread."""
        if self._serve_thread is None or not self._serve_thread.is_alive():
            self._serve_thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-flaky-http", daemon=True)
            self._serve_thread.start()
        return self

    def close(self) -> None:
        """Stop serving and tear down the service's worker pool."""
        self.stalled.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None \
                and self._serve_thread is not threading.current_thread():
            self._serve_thread.join(timeout=5.0)
        self.service.shutdown()

    def __enter__(self) -> "FlakyServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    def to_dict(self) -> dict:
        """Fault tallies for assertions and chaos-run artifacts."""
        with self._rng_lock:
            return {
                "requests": self.requests,
                "fault_rate": self.fault_rate,
                "modes": list(self.modes),
                "faults": dict(self.faults),
                "injected": sum(self.faults.values()),
            }
