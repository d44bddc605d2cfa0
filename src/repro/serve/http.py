"""Stdlib HTTP front end for the prediction service.

An :class:`~http.server.HTTPServer` whose handler threads feed a
shared :class:`~repro.serve.service.PredictionService`. Each accepted
connection goes to a parked (idle) handler thread; a new thread starts
only when every handler is busy, so no connection waits behind another
and none pays for a thread start once the server is warm.
:meth:`ServingHTTPServer.server_close` ends the parked handler threads.

* ``POST /ingest``   — body ``{"trips": [{"origin", "destination",
  "start_time", "end_time"}, ...]}`` (or a single trip object); the
  trips fold into the flow-state store as one batch
  (:meth:`~repro.serve.state.FlowStateStore.ingest_events`), the
  response reports accepted/dropped counts and the current frontier
  slot. A malformed trip anywhere in the body (missing field, bad
  station id, start before slot 0) is a ``400`` and no trip of the
  body is applied. A trip behind the retained horizon is dropped and
  counted in ``dropped_late``.
* ``GET|POST /predict`` — optional ``?stations=0,3,7`` query (GET) or
  ``{"stations": [...]}`` body (POST); answers with denormalised demand
  and supply for the frontier slot. ``503`` with a ``Retry-After``
  header when the admission queue rejects.
* ``GET /healthz``   — liveness plus frontier/model-version/warm-up.
* ``GET /status``    — operational summary: SLO health evaluated from
  the live metrics, trace sampling state, quality windows.
* ``GET /metrics``   — the ``repro.obs`` registry in Prometheus text
  format (:func:`repro.obs.prometheus.prometheus_text`).
* ``POST /admin/reload`` — checkpoint hot-reload trigger; ``500`` with
  the error message (old model keeps serving) on failure.

``/predict`` and ``/ingest`` speak W3C trace context: an incoming
``traceparent`` header parents the request's span tree (a malformed or
absent header starts a fresh root — never an error), and every response
sent while a span is open carries the current span's ``traceparent``
back to the caller. With tracing enabled, one request's JSONL spans
reconstruct the full path — HTTP handling, queue wait, batch assembly,
forward kernels, serialization — via ``python -m repro.obs.trace``.

A body whose ``Content-Length`` is not a non-negative integer is a
``400`` before any of it is read. A connection that sends nothing for
the service's ``request_timeout_seconds`` is closed, and one whose body
stops short of its ``Content-Length`` for that long gets a ``408``, so
a silent client cannot hold a handler thread.

Request handling is deliberately thin: parse, delegate, serialize.
Every serving decision (batching, backpressure, caching, reload
atomicity) lives in the service layer where it is unit-testable without
sockets.
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.obs.prometheus import prometheus_text
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    current_context,
    format_traceparent,
    parse_traceparent,
    trace_span,
)
from repro.serve.service import PredictionService, ServiceOverloaded
from repro.utils import get_logger

logger = get_logger("serve.http")


class ServingHTTPServer(HTTPServer):
    """HTTPServer bound to one PredictionService, with parked handler threads.

    Each accepted connection goes to an idle handler thread; a new
    daemon thread starts only when none is idle, so a connection never
    waits behind a busy handler and the thread count tracks the peak
    number of concurrent connections. A handler parks again once its
    connection is closed.
    """

    def __init__(self, address: tuple[str, int], service: PredictionService) -> None:
        super().__init__(address, ServingHandler)
        self.service = service
        self._idle: list[queue.SimpleQueue] = []  # inboxes of parked handlers
        self._idle_lock = threading.Lock()
        self._closed = False

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._handle, args=(inbox,), name="http-handler", daemon=True
            ).start()
        inbox.put((request, client_address))

    def _handle(self, inbox: queue.SimpleQueue) -> None:
        """A handler thread: serve each connection handed over, then park."""
        while (job := inbox.get()) is not None:
            request, client_address = job
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._idle_lock:
                if self._closed:
                    return
                self._idle.append(inbox)

    def server_close(self) -> None:
        """Close the listening socket and end the parked handler threads.

        A handler still serving a connection ends once that connection
        closes; waiting for it could hang on a client that never sends.
        """
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


class ServingHandler(BaseHTTPRequestHandler):
    server: ServingHTTPServer

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        # StreamRequestHandler.setup() applies ``timeout`` to the socket.
        self.timeout = self.server.service.config.request_timeout_seconds
        super().setup()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        ctx = current_context()
        if ctx is not None:
            # Hand the caller our span context so client and server
            # timelines join into one trace.
            self.send_header(TRACEPARENT_HEADER, format_traceparent(ctx))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _span(self, name: str):
        """A server span for this request, parented by the client's
        ``traceparent`` header when present and well-formed."""
        parent = parse_traceparent(self.headers.get(TRACEPARENT_HEADER))
        return trace_span(name, parent=parent, method=self.command)

    def _read_json(self) -> dict | None:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self._send_json(400, {"error": f"bad Content-Length {raw!r}"})
            return None
        if length == 0:
            return {}
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self.close_connection = True
            self._send_json(408, {"error": "request body timed out"})
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "malformed JSON body"})
            return None
        if not isinstance(payload, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return payload

    # -- routing --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/healthz":
            self._healthz()
        elif url.path == "/status":
            self._status()
        elif url.path == "/metrics":
            self._metrics()
        elif url.path == "/predict":
            self._predict(_stations_from_query(url.query))
        else:
            self._send_json(404, {"error": f"unknown path {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/ingest":
            self._ingest()
        elif url.path == "/predict":
            payload = self._read_json()
            if payload is not None:
                self._predict(payload.get("stations"))
        elif url.path == "/admin/reload":
            self._reload()
        else:
            self._send_json(404, {"error": f"unknown path {url.path}"})

    # -- endpoints ------------------------------------------------------
    def _healthz(self) -> None:
        service = self.server.service
        store = service.store
        self._send_json(200, {
            "status": "ok",
            "frontier": store.frontier,
            "warmed_up": store.warmed_up,
            "model_version": service.model_version,
            "dispatcher_running": service.running,
            "reload_failed": service.reload_failed,
        })

    def _status(self) -> None:
        self._send_json(200, self.server.service.status())

    def _metrics(self) -> None:
        body = prometheus_text().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _ingest(self) -> None:
        with self._span("http.ingest") as span:
            payload = self._read_json()
            if payload is None:
                return
            trips = payload.get("trips", [payload] if payload else [])
            if not isinstance(trips, list):
                self._send_json(400, {"error": "'trips' must be a list"})
                return
            store = self.server.service.store
            try:
                events = [
                    (int(trip["origin"]), int(trip["destination"]),
                     float(trip["start_time"]), float(trip["end_time"]))
                    for trip in trips
                ]
                accepted = store.ingest_events(events)
            except (KeyError, TypeError):
                self._send_json(400, {
                    "error": "each trip needs origin, destination, start_time, end_time"
                })
                return
            except ValueError as error:
                self._send_json(400, {"error": str(error)})
                return
            dropped = len(events) - accepted
            span.set(status=200, accepted=accepted, dropped_late=dropped)
            self._send_json(200, {
                "accepted": accepted,
                "dropped_late": dropped,
                "frontier": store.frontier,
            })

    def _predict(self, stations) -> None:
        with self._span("http.predict") as span:
            if stations is not None:
                try:
                    stations = [int(s) for s in stations]
                except (TypeError, ValueError):
                    self._send_json(400, {"error": "'stations' must be a list of ids"})
                    return
            service = self.server.service
            try:
                forecast = service.predict(stations)
            except ServiceOverloaded as error:
                span.set(status=503)
                self._send_json(
                    503,
                    {"error": str(error), "retry_after": error.retry_after},
                    headers={"Retry-After": f"{error.retry_after:.3f}"},
                )
                return
            except (ValueError, IndexError) as error:
                span.set(status=400)
                self._send_json(400, {"error": str(error)})
                return
            span.set(status=200, cached=forecast.cached, stale=forecast.stale)
            with trace_span("http.serialize", stations=len(forecast.stations)):
                self._send_json(200, {
                    "slot": forecast.slot,
                    "stations": np.asarray(forecast.stations).tolist(),
                    "demand": forecast.demand.tolist(),
                    "supply": forecast.supply.tolist(),
                    "model_version": forecast.model_version,
                    "cached": forecast.cached,
                    "stale": forecast.stale,
                })

    def _reload(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        service = self.server.service
        try:
            version = service.reload(payload.get("checkpoint"))
        except BaseException as error:  # keep serving the old model
            self._send_json(500, {"error": str(error)})
            return
        self._send_json(200, {"reloaded": True, "model_version": version})


def _stations_from_query(query: str) -> list[str] | None:
    params = parse_qs(query)
    if "stations" not in params:
        return None
    stations: list[str] = []
    for chunk in params["stations"]:
        stations.extend(s for s in chunk.split(",") if s)
    return stations


def make_server(
    service: PredictionService, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Bind a serving HTTP server (``port=0`` picks a free port)."""
    return ServingHTTPServer((host, port), service)
