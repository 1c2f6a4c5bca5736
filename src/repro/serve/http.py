"""The HTTP shell around :class:`~repro.serve.service.AnalysisService`.

A deliberately thin adapter: stdlib ``ThreadingHTTPServer`` accepts
connections, each handler thread parses the request envelope (path,
client key, JSON body) and hands it to
:meth:`AnalysisService.dispatch`, which already owns admission,
supervision, degradation, and the exception→JSON mapping.  The only
logic living here is transport logic:

* request bodies are size-capped (``max_body_bytes``) before parsing;
* the client key comes from the ``X-Client-Id`` header when present,
  else the peer address — the unit the per-client breaker trips on;
* every response is ``application/json`` with ``sort_keys=True``;
* socket-level failures (client hung up mid-write) are swallowed —
  never allowed to take down the handler thread.

Lifecycle is crash-only: :meth:`ReproServer.run_until_signal` serves
until SIGTERM/SIGINT, then performs the graceful drain inside a
:class:`~repro.resilience.SignalGuard` critical section (a second
signal during the drain defers rather than tearing it), and returns an
exit code.  ``kill -9`` at any point is also safe — the store is only
ever written atomically, so a restarted server recovers by
construction.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..obs import counter as obs_counter
from ..resilience import SignalGuard
from .service import AnalysisService, error_payload

__all__ = ["ReproServer", "make_handler"]

_MAX_BODY_BYTES = 8 * 1024 * 1024


class _HTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` with a listen backlog sized for bursts.

    Clients open a fresh connection per request, so a burst of them
    outruns the accept loop.  With socketserver's default backlog of 5
    the kernel's accept queue overflowed and dropped handshakes, and
    clients under load saw connection resets.
    """

    request_queue_size = 128


def make_handler(service: AnalysisService,
                 max_body_bytes: int = _MAX_BODY_BYTES):
    """Build the request-handler class bound to *service*."""

    class _Handler(BaseHTTPRequestHandler):
        """One HTTP exchange; all analysis logic lives in the service."""

        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        # -- plumbing --------------------------------------------------
        def log_message(self, format: str, *args: Any) -> None:
            """Silence the default stderr access log (metrics cover it)."""

        def _client_key(self) -> str:
            header = self.headers.get("X-Client-Id")
            if header:
                return header.strip()[:128]
            return self.client_address[0]

        def _read_body(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0 or length > max_body_bytes:
                raise ValueError(
                    f"request body of {length} bytes exceeds the "
                    f"{max_body_bytes}-byte limit")
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            return payload

        def _send_json(self, status: int, body: dict,
                       headers: dict | None = None) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                for key, value in (headers or {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(data)
            except OSError:  # pragma: client went away mid-write; the
                # response cannot be delivered and must not kill the
                # handler thread
                obs_counter("serve.http.write_failures")

        def _exchange(self, method: str, payload: dict | None) -> None:
            """Dispatch one parsed request and answer it.

            The one step a fault-injecting subclass overrides
            (:class:`~repro.workloads.FlakyServer`); parsing and error
            mapping stay here.
            """
            self._send_json(*service.dispatch(
                method, self.path, payload, self._client_key(),
                dict(self.headers.items())))

        # -- verbs -----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 (http.server contract)
            try:
                self._exchange("GET", None)
            except Exception as exc:  # pragma: transport boundary — any
                # failure still leaves as a typed JSON error envelope
                self._send_json(*error_payload(exc))

        def do_POST(self) -> None:  # noqa: N802 (http.server contract)
            try:
                self._exchange("POST", self._read_body())
            except Exception as exc:  # pragma: transport boundary — bad
                # JSON, oversized bodies, and surprises all map to
                # typed JSON error envelopes instead of stack traces
                self._send_json(*error_payload(exc))

    return _Handler


class ReproServer:
    """The ``repro serve`` daemon: socket, threads, and lifecycle.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.AnalysisService` to expose.
    host / port:
        Bind address (``port=0`` picks a free port; see :attr:`port`).
    drain_deadline:
        Seconds the graceful drain waits for in-flight requests.
    max_body_bytes:
        Request-body size cap.
    """

    def __init__(self, service: AnalysisService, host: str = "127.0.0.1",
                 port: int = 8080, *, drain_deadline: float = 10.0,
                 max_body_bytes: int = _MAX_BODY_BYTES):
        if drain_deadline < 0:
            raise ValueError(
                f"drain_deadline must be >= 0, got {drain_deadline}")
        self.service = service
        self.drain_deadline = float(drain_deadline)
        self.httpd = _HTTPServer(
            (host, port), make_handler(service, max_body_bytes))
        self.httpd.daemon_threads = True
        self._serve_thread: threading.Thread | None = None
        self._stopped = threading.Event()

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self.httpd.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` string of the bound socket."""
        host, port = self.httpd.server_address[:2]
        return f"{host}:{port}"

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ReproServer":
        """Serve in a background thread (for tests and embedding)."""
        if self._serve_thread is None or not self._serve_thread.is_alive():
            self._serve_thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-serve-http", daemon=True)
            self._serve_thread.start()
        if self.service.governor is not None:
            self.service.governor.start()
        return self

    def drain(self) -> bool:
        """Graceful shutdown: refuse new work, finish in-flight work.

        Ordering matters: the service starts shedding first (503s for
        late arrivals), the listener stops accepting, the worker pool
        gets ``drain_deadline`` seconds to go idle, and only then are
        threads torn down and final gauges flushed.  Returns True when
        the pool went idle inside the deadline.
        """
        if self._stopped.is_set():
            return True
        self._stopped.set()
        obs_counter("serve.shutdowns")
        self.service.begin_drain()
        self.httpd.shutdown()
        drained = self.service.pool.drain(self.drain_deadline)
        self.service.shutdown()
        self.httpd.server_close()
        if self._serve_thread is not None \
                and self._serve_thread is not threading.current_thread():
            self._serve_thread.join(timeout=5.0)
        if drained:
            obs_counter("serve.drained")
        else:
            obs_counter("serve.drain_timeouts")
        return drained

    def close(self) -> None:
        """Alias for :meth:`drain` (context-manager convenience)."""
        self.drain()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.drain()

    def run_until_signal(self) -> int:
        """Serve until SIGTERM/SIGINT, then drain; returns exit code 0.

        The drain runs inside a :class:`SignalGuard` critical section:
        a second signal arriving mid-drain is deferred until the drain
        completes instead of tearing half-written responses.  (The
        deferred signal is then intentionally swallowed — the server
        is already exiting.)
        """
        self.start()
        with SignalGuard() as guard:
            try:
                # the serving itself happens on background threads;
                # this foreground wait is what the signal interrupts
                while not self._stopped.wait(3600.0):
                    pass
            except (KeyboardInterrupt, SystemExit):
                try:
                    with guard.critical():
                        self.drain()
                except (KeyboardInterrupt, SystemExit):
                    # the deferred second signal: drain already done
                    return 0
            else:
                self.drain()
        return 0
