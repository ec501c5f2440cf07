"""Zero-dependency HTTP scrape endpoint: ``/metrics`` and ``/healthz``.

The Prometheus textfile rendering already exists (:mod:`repro.observability.export`);
this module puts it behind a socket so a running campaign can be scraped
instead of inspected post-mortem. Built entirely on :mod:`http.server` —
no third-party web framework, matching the rest of the observability
stack's stdlib-only discipline.

* ``GET /metrics`` — the watched telemetry session in the Prometheus text
  exposition format (label values scrape-safely escaped).
* ``GET /healthz`` — liveness JSON. When a :class:`CampaignHealth` is wired
  in, it carries campaign progress: shard index, done/failed counts, the
  current ligands/s, and an ETA taken from the live sampler's rate window
  when one is attached (falling back to the runner's session rate).

Binding to port 0 picks an ephemeral port (exposed as ``server.port``
after :meth:`MetricsServer.start`), which is how the integration tests run
a real scrape against a docking campaign without port collisions.
"""

from __future__ import annotations

import errno
import json
import math
import threading
import time
from typing import TYPE_CHECKING, Callable

from repro.errors import ObservabilityError
from repro.observability.export import snapshot_to_prometheus

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["MetricsServer", "CampaignHealth"]

#: Prometheus text exposition content type.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _json_safe(value):
    """Replace NaN/Inf with None so /healthz always emits strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class CampaignHealth:
    """Mutable progress holder feeding ``/healthz`` while a campaign runs.

    Wire :meth:`update` as (one of) the runner's ``progress`` callbacks;
    every shard refreshes the snapshot the handler serves. ``sampler`` may
    be a live :class:`~repro.observability.sampler.TelemetrySampler`; its
    latest window rate then drives the ETA instead of the runner's
    whole-session average (a long warm-up stops skewing the estimate).
    """

    def __init__(self, total_shards: int | None = None, sampler=None) -> None:
        self.total_shards = total_shards
        self.sampler = sampler
        self._lock = threading.Lock()
        self._progress = None
        self._status = "starting"

    def update(self, progress) -> None:
        """Record one CampaignProgress-shaped snapshot (thread-safe)."""
        with self._lock:
            self._progress = progress
            self._status = "running"

    def finish(self, status: str = "complete") -> None:
        with self._lock:
            self._status = status

    @staticmethod
    def _pool_idle_fraction(elapsed_seconds) -> float | None:
        """Fraction of the session the worker pool sat fully idle.

        Derived from the ``host.pool.idle.seconds`` counter (accumulated by
        the host runtime whenever no launch is in flight) over campaign
        elapsed time, so the doctor and a future multi-tenant server can see
        saturation: near 0.0 means the docking pipeline keeps the pool busy,
        near 1.0 means workers are waiting on the host. ``None`` before any
        elapsed time (or without a worker pool the counter stays 0, which
        reads as fully saturated serial execution).
        """
        from repro import observability as obs

        if not elapsed_seconds or elapsed_seconds <= 0:
            return None
        idle = obs.counter("host.pool.idle.seconds").value
        return min(1.0, idle / float(elapsed_seconds))

    def health(self) -> dict:
        """The ``/healthz`` document for the current state."""
        with self._lock:
            progress = self._progress
            status = self._status
        doc: dict = {"status": status, "total_shards": self.total_shards}
        if progress is not None:
            eta = progress.eta_seconds
            rate = progress.ligands_per_second
            record = self.sampler.last_record if self.sampler is not None else None
            if record is not None:
                window_rate = record["derived"].get("ligands_per_s") or 0.0
                if window_rate > 0 and progress.total is not None:
                    remaining = max(
                        0, progress.total - progress.done - progress.failed
                    )
                    eta = remaining / window_rate
                    rate = window_rate
            doc["campaign"] = {
                "shard": progress.shard_id,
                "done": progress.done,
                "failed": progress.failed,
                "total": progress.total,
                "elapsed_seconds": progress.elapsed_seconds,
                "ligands_per_second": rate,
                "eta_seconds": eta,
                "pool_idle_fraction": self._pool_idle_fraction(
                    progress.elapsed_seconds
                ),
            }
            # Distributed campaigns report a per-node table
            # (ClusterProgress.nodes): id, state, weight, done/failed, plus
            # the early-warning columns lease_queue_depth and
            # last_heartbeat_age_s — a node whose heartbeat age climbs
            # toward the death timeout is visibly stalling here before the
            # coordinator's death detection ever fires. Rows pass through
            # verbatim so new coordinator columns appear without edits.
            nodes = getattr(progress, "nodes", None)
            if nodes:
                doc["nodes"] = [dict(node) for node in nodes]
        return _json_safe(doc)


def _handler_class() -> type[BaseHTTPRequestHandler]:
    """The request handler, built when a server starts.

    :mod:`http.server` (and the :mod:`ssl` it pulls in) loads here, not
    at import: most processes that import the observability package
    never serve a scrape.
    """
    from http.server import BaseHTTPRequestHandler

    class _Handler(BaseHTTPRequestHandler):
        """Serves /metrics and /healthz from the owning server's callables."""

        server_version = "repro-vs-metrics/1"

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    body = snapshot_to_prometheus(self.server.snapshot_fn())
                    self._reply(200, _METRICS_CONTENT_TYPE, body.encode("utf-8"))
                elif path == "/healthz":
                    health_fn = self.server.health_fn
                    doc = health_fn() if health_fn is not None else {"status": "ok"}
                    self._reply(
                        200,
                        "application/json",
                        json.dumps(_json_safe(doc), sort_keys=True).encode("utf-8"),
                    )
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")
            except Exception as exc:  # a scrape must never kill the server
                self._reply(
                    500, "text/plain; charset=utf-8", f"error: {exc}\n".encode("utf-8")
                )

        def _reply(self, code: int, content_type: str, body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):  # impatient scraper
                pass

        def log_message(self, fmt, *args) -> None:  # silence per-request noise
            pass

    return _Handler


class MetricsServer:
    """A background HTTP server exposing one telemetry session.

    Parameters
    ----------
    port:
        TCP port; 0 binds an ephemeral one (read ``.port`` after start).
    host:
        Bind address; loopback by default — exposing a run beyond the local
        machine is an explicit decision.
    snapshot_fn:
        Zero-argument callable returning a snapshot document. Defaults to
        the process-global session's live snapshot, so ``/metrics`` always
        reflects the run in progress. Pass e.g.
        ``lambda: load_snapshot(path)`` to serve a snapshot file instead
        (textfile-collector mode, re-read on every scrape).
    health_fn:
        Zero-argument callable returning the ``/healthz`` JSON document
        (e.g. :meth:`CampaignHealth.health`); omitted → ``{"status": "ok"}``.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        snapshot_fn: Callable[[], dict] | None = None,
        health_fn: Callable[[], dict] | None = None,
    ) -> None:
        if not 0 <= int(port) <= 65535:
            raise ObservabilityError(f"port must be in [0, 65535], got {port}")
        self.host = host
        self._requested_port = int(port)
        self.port: int | None = None
        if snapshot_fn is None:
            from repro import observability as obs

            snapshot_fn = obs.snapshot
        self._snapshot_fn = snapshot_fn
        self._health_fn = health_fn
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    #: Bind retries on EADDRINUSE — a just-stopped server (or the previous
    #: campaign's scrape endpoint) can hold the port for a beat.
    _BIND_ATTEMPTS = 5
    _BIND_BACKOFF_S = 0.2

    # ------------------------------------------------------------------
    def start(self) -> "MetricsServer":
        """Bind and serve in a daemon thread (idempotent).

        A fixed port that is momentarily occupied is retried with
        exponential backoff; a port that stays occupied raises an
        :class:`~repro.errors.ObservabilityError` naming it.
        """
        if self._server is not None:
            return self
        from http.server import ThreadingHTTPServer

        handler = _handler_class()
        delay = self._BIND_BACKOFF_S
        for attempt in range(1, self._BIND_ATTEMPTS + 1):
            try:
                server = ThreadingHTTPServer(
                    (self.host, self._requested_port), handler
                )
                break
            except OSError as exc:
                in_use = exc.errno == errno.EADDRINUSE
                if in_use and attempt < self._BIND_ATTEMPTS:
                    time.sleep(delay)
                    delay *= 2
                    continue
                detail = (
                    f"port {self._requested_port} is already in use "
                    f"(gave up after {attempt} attempts); pass a different "
                    "--serve-metrics port, or 0 for an ephemeral one"
                    if in_use
                    else str(exc)
                )
                raise ObservabilityError(
                    f"cannot bind metrics server to "
                    f"{self.host}:{self._requested_port}: {detail}"
                ) from exc
        server.daemon_threads = True
        server.snapshot_fn = self._snapshot_fn
        server.health_fn = self._health_fn
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever, name="metrics-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down and release the socket. Idempotent."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def url(self) -> str:
        """Base URL once started (e.g. ``http://127.0.0.1:43121``)."""
        if self.port is None:
            raise ObservabilityError("metrics server is not started")
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
