"""Live telemetry endpoint: ``/metrics``, ``/health``, ``/traces``.

PR 8's registry and tracer were export-on-demand only — a process had
to be imported and asked.  This module puts them on the wire with the
stdlib alone (:class:`http.server.ThreadingHTTPServer`; no new
dependencies, matching the repo's constraint):

* ``GET /metrics`` — the whole registry in Prometheus text exposition
  format, scrapeable by a stock Prometheus;
* ``GET /health`` — the :class:`~repro.obs.health.HealthMonitor`'s
  current :class:`~repro.obs.health.HealthReport` as JSON, with the
  HTTP status carrying the verdict: 200 for ``ok``/``warn``, 503 for
  ``breach`` — so a load balancer or readiness probe needs no JSON
  parsing to stop routing to an overloaded process;
* ``GET /traces`` — the tracer's recent ring-buffer spans as JSON
  (``?limit=N`` caps the count, newest kept);
* ``GET /`` — a route index.

Start one embedded via ``StreamConfig(serve_port=...)`` (the owning
streaming service, or the localization service over it, stops it on
``close()``), standalone via :func:`serve` / ``python -m repro.obs
serve``, or in a test with ``ObsServer(port=0)`` (ephemeral port,
``.port`` reports the bound one).  Handlers run on daemon threads and
only read thread-safe substrate (registry snapshot, monitor evaluate,
tracer ring copy), so serving never blocks the serving stack.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.obs.health import HealthMonitor, get_monitor
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACER, Tracer

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ROUTES = ("/", "/metrics", "/health", "/traces")


class _ObsHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its owning :class:`ObsServer`."""

    daemon_threads = True
    obs: "ObsServer"


class _Handler(BaseHTTPRequestHandler):
    """One request: route, render from the substrate, reply."""

    server: _ObsHTTPServer

    # BaseHTTPRequestHandler logs every request to stderr by default;
    # a scrape every few seconds would drown real output.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def do_GET(self) -> None:  # noqa: N802 - http.server's naming
        obs = self.server.obs
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            self._reply(
                200,
                PROMETHEUS_CONTENT_TYPE,
                obs.registry.render_prometheus(),
            )
        elif route == "/health":
            report = obs.monitor.evaluate(sample_now=obs.sample_on_request)
            self._reply_json(
                200 if report.ok else 503, report.to_dict()
            )
        elif route == "/traces":
            spans = obs.tracer.finished()
            query = parse_qs(parsed.query)
            if "limit" in query:
                try:
                    limit = max(0, int(query["limit"][-1]))
                except ValueError:
                    self._reply_json(
                        400, {"error": "limit must be an integer"}
                    )
                    return
                spans = spans[len(spans) - limit:] if limit else []
            self._reply_json(
                200,
                {
                    "n_spans": len(spans),
                    "tracing_enabled": obs.tracer.enabled,
                    "spans": spans,
                },
            )
        elif route == "/":
            self._reply_json(200, {"routes": list(_ROUTES)})
        else:
            self._reply_json(
                404, {"error": f"no route {route!r}", "routes": list(_ROUTES)}
            )

    def _reply_json(self, status: int, payload: dict[str, Any]) -> None:
        self._reply(
            status,
            "application/json; charset=utf-8",
            json.dumps(payload, indent=2, sort_keys=True, default=str),
        )

    def _reply(self, status: int, content_type: str, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ObsServer:
    """A start/stoppable telemetry endpoint over the obs substrate.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`); ``sample_on_request=True`` (the default) makes each
    ``/health`` request append a fresh monitor sample before judging,
    so a pull-only deployment needs no background sampler thread —
    pass ``False`` when a sampler (or the application tick) already
    feeds the window and request-rate must not distort it.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        monitor: HealthMonitor | None = None,
        tracer: Tracer | None = None,
        sample_on_request: bool = True,
    ) -> None:
        self.requested_port = port
        self.host = host
        self.registry = registry if registry is not None else REGISTRY
        self.monitor = monitor if monitor is not None else get_monitor()
        self.tracer = tracer if tracer is not None else TRACER
        self.sample_on_request = sample_on_request
        self._lock = threading.Lock()
        self._httpd: _ObsHTTPServer | None = None  # guarded-by: self._lock
        self._thread: threading.Thread | None = None  # guarded-by: self._lock

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ObsServer":
        """Bind and serve on a daemon thread (idempotent); returns self."""
        with self._lock:
            if self._httpd is not None:
                return self
            httpd = _ObsHTTPServer((self.host, self.requested_port), _Handler)
            httpd.obs = self
            thread = threading.Thread(
                target=httpd.serve_forever,
                name="obs-http-server",
                daemon=True,
            )
            self._httpd = httpd
            self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        with self._lock:
            httpd, self._httpd = self._httpd, None
            thread, self._thread = self._thread, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the server is currently bound and serving."""
        with self._lock:
            return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when requested as 0)."""
        with self._lock:
            if self._httpd is None:
                return self.requested_port
            return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Root URL of the running (or to-be-started) server."""
        return f"http://{self.host}:{self.port}"


def serve(
    port: int,
    host: str = "127.0.0.1",
    monitor: HealthMonitor | None = None,
) -> ObsServer:
    """Start a telemetry endpoint on ``host:port`` and return it running."""
    return ObsServer(port=port, host=host, monitor=monitor).start()
