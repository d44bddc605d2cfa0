"""End-to-end request tracing and /status over the HTTP serving path."""

import json
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core import STGNNDJD
from repro.eval import metrics as paper_metrics
from repro.obs import JsonlExporter, read_events, set_sink
from repro.obs.quality import QualityConfig
from repro.obs.slo import SLOConfig
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    TraceConfig,
    enable_tracing,
    group_traces,
    parse_traceparent,
    render_trace,
    trace_spans,
)
from repro.serve import PredictionService, ServiceConfig, make_server
from repro.serve.service import _Request

CLIENT = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"


@pytest.fixture
def telemetry(tmp_path):
    """Tracing on, spans routed to a JSONL file; state restored after."""
    path = tmp_path / "serve.events.jsonl"
    sink = JsonlExporter(path)
    prev_sink = set_sink(sink)
    prev_trace = enable_tracing(TraceConfig())
    try:
        yield path
    finally:
        enable_tracing(prev_trace if prev_trace is not None else False)
        set_sink(prev_sink)
        sink.close()


@pytest.fixture
def server(telemetry, tiny_dataset):
    model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
    service = PredictionService.for_dataset(
        model, tiny_dataset,
        config=ServiceConfig(
            quality=QualityConfig(window=16, min_samples=1),
            slo=SLOConfig(p99_latency_seconds=30.0),
        ),
    )
    http_server = make_server(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    service.start()
    try:
        yield http_server
    finally:
        service.stop()
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _call(server, path, traceparent=None, payload=None):
    """GET ``path``, or POST ``payload`` to it as JSON."""
    request = urllib.request.Request(
        _url(server, path),
        data=None if payload is None else json.dumps(payload).encode(),
        headers={} if payload is None else {"Content-Type": "application/json"},
    )
    if traceparent is not None:
        request.add_header(TRACEPARENT_HEADER, traceparent)
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return (response.status, json.loads(response.read()),
                response.headers.get(TRACEPARENT_HEADER))


def _ingest_one_slot_ahead(server, slot, slot_seconds, traceparent=None):
    """One trip starting in the slot after ``slot``: rolls the frontier."""
    start = (slot + 1) * slot_seconds + 1.0
    trip = {"origin": 0, "destination": 1,
            "start_time": start, "end_time": start + 300.0}
    return _call(server, "/ingest", traceparent, payload={"trips": [trip]})


def _spans(path, expect="http.predict", count=1, timeout=5.0):
    """Spans from the stream, waiting for the server thread to finish
    emitting (the client's response returns before the request span
    closes)."""
    deadline = time.monotonic() + timeout
    while True:
        spans = trace_spans(read_events(path))
        if sum(s["name"] == expect for s in spans) >= count:
            return spans
        if time.monotonic() > deadline:
            return spans
        time.sleep(0.01)


class TestHttpTracePropagation:
    def test_client_context_parents_the_request_trace(self, server, telemetry):
        status, _, echoed = _call(server, "/predict", traceparent=CLIENT)
        assert status == 200
        client = parse_traceparent(CLIENT)
        # the response hands back a span on the *client's* trace
        echoed_ctx = parse_traceparent(echoed)
        assert echoed_ctx is not None
        assert echoed_ctx.trace_id == client.trace_id

        spans = {s["name"]: s["data"] for s in _spans(telemetry)}
        request = spans["http.predict"]
        assert request["trace_id"] == client.trace_id
        assert request["parent_span_id"] == client.span_id
        assert request["attrs"]["status"] == 200
        # queue wait + serialization are children on the same trace
        assert spans["serve.queue"]["trace_id"] == client.trace_id
        assert spans["serve.queue"]["parent_span_id"] == request["span_id"]
        assert spans["http.serialize"]["parent_span_id"] == request["span_id"]
        # the batch is its own trace root, *linking* the request span
        batch = spans["serve.batch"]
        assert batch["trace_id"] != client.trace_id
        assert batch["parent_span_id"] is None
        assert [client.trace_id, request["span_id"]] in batch["links"]
        assert spans["serve.forward"]["trace_id"] == batch["trace_id"]
        assert spans["serve.assemble"]["trace_id"] == batch["trace_id"]

    def test_malformed_traceparent_starts_fresh_root(self, server, telemetry):
        status, _, echoed = _call(server, "/predict", traceparent="garbage")
        assert status == 200
        assert parse_traceparent(echoed) is not None  # fresh, well-formed
        [request] = [s["data"] for s in _spans(telemetry)
                     if s["name"] == "http.predict"]
        assert request["parent_span_id"] is None

    def test_cache_hit_request_still_traces_completely(self, server, telemetry):
        _call(server, "/predict", traceparent=CLIENT)
        fresh = "00-" + "c" * 32 + "-" + "d" * 16 + "-01"
        status, body, _ = _call(server, "/predict", traceparent=fresh)
        assert status == 200
        assert body["cached"] is True
        spans = _spans(telemetry, count=2)
        batches = [s["data"] for s in spans if s["name"] == "serve.batch"]
        assert batches[-1]["attrs"]["cached"] is True
        # the cached request's trace is complete: request + queue + batch link
        request = next(s["data"] for s in spans
                       if s["name"] == "http.predict"
                       and s["data"]["trace_id"] == "c" * 32)
        queues = [s["data"] for s in spans if s["name"] == "serve.queue"
                  and s["data"]["trace_id"] == "c" * 32]
        assert len(queues) == 1
        assert ["c" * 32, request["span_id"]] in batches[-1]["links"]
        # no second forward ran for the cache hit
        assert len([s for s in spans if s["name"] == "serve.forward"]) == 1

    def test_cli_reconstructs_the_request_timeline(self, server, telemetry):
        _call(server, "/predict", traceparent=CLIENT)
        traces = group_traces(_spans(telemetry))
        client = parse_traceparent(CLIENT)
        text = render_trace(traces, client.trace_id)
        for name in ("http.predict", "serve.queue", "↳ serve.batch",
                     "serve.forward", "http.serialize"):
            assert name in text

    def test_trace_cli_runs_over_a_served_stream(self, server, telemetry, tiny_dataset):
        _call(server, "/predict", traceparent=CLIENT)
        slot = server.service.store.frontier
        _ingest_one_slot_ahead(server, slot, tiny_dataset.config.slot_seconds,
                               traceparent=CLIENT)
        _spans(telemetry, expect="http.ingest")
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.trace", str(telemetry),
             "--trace", parse_traceparent(CLIENT).trace_id],
            capture_output=True, text=True, timeout=60.0,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("http.predict", "serve.queue", "↳ serve.batch",
                     "serve.assemble", "serve.forward", "http.serialize",
                     "http.ingest"):
            assert name in proc.stdout

    def test_status_endpoint_reports_slo_trace_quality(self, server):
        status, body, _ = _call(server, "/status")
        assert status == 200
        assert body["status"] in ("ok", "degraded")
        names = {obj["name"] for obj in body["slo"]["objectives"]}
        assert {"p99_latency_seconds", "staleness_ratio",
                "error_budget_burn", "drift_ratio"} <= names
        assert body["trace"]["enabled"] is True
        assert body["quality"]["pending"] >= 0


class TestQualityOverHttp:
    def test_rollover_scores_the_served_forecast_like_eval_metrics(
        self, server, tiny_dataset
    ):
        _, body, _ = _call(server, "/predict")
        slot = body["slot"]
        predicted = [np.asarray(body[key], dtype=np.float64)[None]
                     for key in ("demand", "supply")]
        status, ingest, _ = _ingest_one_slot_ahead(
            server, slot, tiny_dataset.config.slot_seconds
        )
        assert status == 200 and ingest["frontier"] > slot

        _, status_body, _ = _call(server, "/status")
        quality = status_body["quality"]
        assert quality["reconciled"] >= 1
        window = quality["windows"]["0"]
        true_demand, true_supply = server.service.store.realized(slot)
        pairs = (true_demand[None], predicted[0], true_supply[None], predicted[1])
        assert abs(window["rmse"] - paper_metrics.rmse(*pairs)) <= 1e-12
        assert abs(window["mae"] - paper_metrics.mae(*pairs)) <= 1e-12


class TestOverloadTrace:
    def test_rejected_request_span_records_503(self, telemetry, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        service = PredictionService.for_dataset(
            model, tiny_dataset,
            config=ServiceConfig(queue_depth=1, max_batch=1),
        )
        http_server = make_server(service, port=0)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        release = threading.Event()
        picked = threading.Event()
        original = service._full_forecast

        def blocking(model, version):
            picked.set()
            release.wait(timeout=10.0)
            return original(model, version)

        service._full_forecast = blocking
        service.start()
        try:
            first_done = threading.Event()
            first = threading.Thread(
                target=lambda: (_call(http_server, "/predict"),
                                first_done.set()))
            first.start()
            assert picked.wait(timeout=10.0)
            service._queue.put_nowait(_Request(None))  # fill depth-1 queue
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _call(http_server, "/predict", traceparent=CLIENT)
            assert excinfo.value.code == 503
            release.set()
            first.join(timeout=10.0)
        finally:
            service.stop()
            release.set()
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
        client = parse_traceparent(CLIENT)
        rejected = [
            s["data"] for s in _spans(telemetry, count=2)
            if s["name"] == "http.predict"
            and s["data"]["trace_id"] == client.trace_id
        ]
        assert len(rejected) == 1
        assert rejected[0]["attrs"]["status"] == 503
