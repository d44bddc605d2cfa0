"""HTTP front end: endpoints, error mapping, metrics exposition."""

import contextlib
import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import STGNNDJD, load_stgnn, save_checkpoint
from repro.obs import default_registry, metrics_scope
from repro.serve import FlowStateStore, PredictionService, ServiceConfig, make_server
from repro.serve.service import _Request
from repro.tensor import inference_mode


@contextlib.contextmanager
def _serving(service):
    """A started service behind a live HTTP server, torn down on exit."""
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


@pytest.fixture
def server(tiny_dataset):
    model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
    with _serving(PredictionService.for_dataset(model, tiny_dataset)) as http_server:
        yield http_server


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10.0) as response:
        return response.status, json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, json.loads(response.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["warmed_up"] is True
        assert body["dispatcher_running"] is True

    def test_ingest_then_predict(self, server, tiny_dataset):
        slot_seconds = tiny_dataset.config.slot_seconds
        now = server.service.store.frontier * slot_seconds + 1.0
        status, body = _post(server, "/ingest", {"trips": [
            {"origin": 0, "destination": 3,
             "start_time": now, "end_time": now + 300.0},
            {"origin": 2, "destination": 1,
             "start_time": now + 5.0, "end_time": now + 900.0},
        ]})
        assert status == 200
        assert body["accepted"] == 2
        assert body["dropped_late"] == 0

        status, body = _get(server, "/predict?stations=0,3")
        assert status == 200
        assert body["stations"] == [0, 3]
        assert len(body["demand"]) == 2
        assert len(body["supply"]) == 2
        assert body["slot"] == server.service.store.frontier

    def test_predict_post_all_stations(self, server, tiny_dataset):
        status, body = _post(server, "/predict", {})
        assert status == 200
        assert len(body["demand"]) == tiny_dataset.num_stations

    def test_predict_bad_station_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/predict?stations=9999")
        assert excinfo.value.code == 400

    def test_ingest_malformed_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/ingest", {"trips": [{"origin": 0}]})
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        assert excinfo.value.code == 404

    def test_metrics_exposition(self, server):
        with metrics_scope():
            _get(server, "/predict")
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            ) as response:
                assert response.status == 200
                text = response.read().decode("utf-8")
        assert "serve_requests_total" in text
        assert "serve_request_seconds" in text

    def test_admin_reload(self, server, tiny_dataset, tmp_path):
        path = tmp_path / "next.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=9), path)
        status, body = _post(server, "/admin/reload", {"checkpoint": str(path)})
        assert status == 200
        assert body == {"reloaded": True, "model_version": 1}

    def test_admin_reload_failure_is_500_and_keeps_serving(
        self, server, tmp_path
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/admin/reload", {"checkpoint": str(tmp_path / "x.npz")})
        assert excinfo.value.code == 500
        status, _ = _get(server, "/predict")  # old model still answers
        assert status == 200


class TestLibraryParity:
    """The HTTP path serves exactly what the library computes."""

    @staticmethod
    def _library_forecast(checkpoint, store, dataset):
        model = load_stgnn(checkpoint)
        with inference_mode():
            demand, supply = model(store.sample())
        return (dataset.demand_normalizer.inverse_transform(demand.data),
                dataset.supply_normalizer.inverse_transform(supply.data))

    def test_predict_matches_a_mirror_store_before_and_after_reload(
        self, tiny_dataset, tmp_path
    ):
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=3), first)
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=4), second)
        service = PredictionService.from_checkpoint(
            first, FlowStateStore.from_dataset(tiny_dataset),
            tiny_dataset.demand_normalizer, tiny_dataset.supply_normalizer,
        )
        # Fed the same trips through the library API, not over HTTP.
        mirror = FlowStateStore.from_dataset(tiny_dataset)
        slot_seconds = tiny_dataset.config.slot_seconds
        now = mirror.frontier * slot_seconds
        trips = [
            {"origin": 0, "destination": 5,
             "start_time": now + 30.0, "end_time": now + 400.0},
            {"origin": 3, "destination": 1,
             "start_time": now + 45.0, "end_time": now + 2 * slot_seconds},
            {"origin": 6, "destination": 0,
             "start_time": now + 90.0, "end_time": now + 600.0},
        ]
        with _serving(service) as server, metrics_scope():
            status, body = _post(server, "/ingest", {"trips": trips})
            assert status == 200 and body["accepted"] == len(trips)
            mirror.ingest_events([
                (t["origin"], t["destination"], t["start_time"], t["end_time"])
                for t in trips
            ])

            status, served = _get(server, "/predict")
            assert status == 200
            demand, supply = self._library_forecast(first, mirror, tiny_dataset)
            assert np.array_equal(np.asarray(served["demand"]), demand)
            assert np.array_equal(np.asarray(served["supply"]), supply)

            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10.0
            ) as response:
                assert "serve_ingest_events_total" in response.read().decode()

            status, body = _post(server, "/admin/reload", {"checkpoint": str(second)})
            assert status == 200 and body["reloaded"] is True
            status, reloaded = _get(server, "/predict")
            assert status == 200
            demand, supply = self._library_forecast(second, mirror, tiny_dataset)
            assert np.array_equal(np.asarray(reloaded["demand"]), demand)
            assert np.array_equal(np.asarray(reloaded["supply"]), supply)
            assert not np.array_equal(np.asarray(reloaded["demand"]),
                                      np.asarray(served["demand"]))


def _raw_request(server, head: bytes) -> bytes:
    """Send raw request bytes; return everything the server answers."""
    with socket.create_connection(server.server_address[:2], timeout=10.0) as conn:
        conn.sendall(head)
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestContentLength:
    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_bad_content_length_is_400(self, server, length):
        # No body follows: a handler that trusted the header would
        # crash on "abc" and block on -1 until the client hung up.
        reply = _raw_request(
            server, b"POST /ingest HTTP/1.0\r\nContent-Length: " + length + b"\r\n\r\n"
        )
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.split()[1] == b"400"
        assert b"Content-Length" in rest.partition(b"\r\n\r\n")[2]


class TestSocketTimeout:
    @pytest.fixture
    def server(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        service = PredictionService.for_dataset(
            model, tiny_dataset, config=ServiceConfig(request_timeout_seconds=0.3)
        )
        with _serving(service) as http_server:
            yield http_server

    def test_silent_client_is_dropped_and_its_handler_parks(self, server):
        class Parking(list):
            parked = threading.Event()

            def append(self, inbox):
                super().append(inbox)
                self.parked.set()

        server._idle = Parking()
        seen = _handler_spy(server)
        with socket.create_connection(server.server_address[:2]) as silent:
            silent.settimeout(5.0)
            assert silent.recv(1) == b""  # the server hung up
        assert server._idle.parked.wait(timeout=5.0)
        assert _get(server, "/healthz")[0] == 200
        assert len(seen) == 2 and seen[1] is seen[0]  # parked, then reused

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_non_positive_timeout_is_rejected(self, seconds):
        with pytest.raises(ValueError, match="request_timeout_seconds"):
            ServiceConfig(request_timeout_seconds=seconds)

    def test_body_short_of_its_content_length_is_408(self, server):
        reply = _raw_request(
            server, b"POST /ingest HTTP/1.0\r\nContent-Length: 64\r\n\r\n{}"
        )
        assert reply.partition(b"\r\n")[0].split()[1] == b"408"


class TestAtomicIngest:
    def test_malformed_trip_applies_no_trip_of_its_batch(self, server, tiny_dataset):
        store = server.service.store
        slot_seconds = tiny_dataset.config.slot_seconds
        now = store.frontier * slot_seconds + 1.0
        later = now + 2 * slot_seconds  # would advance the frontier
        trips = [
            {"origin": 0, "destination": 3, "start_time": later, "end_time": later + 60.0},
            {"origin": 2, "destination": 1, "start_time": now, "end_time": now + 90.0},
            {"origin": 1, "destination": 2, "start_time": now},  # no end_time
        ]
        with metrics_scope():
            registry = default_registry()
            counters = [registry.counter("serve.ingest_events"),
                        registry.counter("serve.ingest_dropped_late")]
            before = [c.value for c in counters]
            version, frontier = store.version, store.frontier
            first, inflow, outflow = store.retained_flows()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, "/ingest", {"trips": trips})
            assert excinfo.value.code == 400
            assert [c.value for c in counters] == before
        assert (store.version, store.frontier) == (version, frontier)
        after_first, after_inflow, after_outflow = store.retained_flows()
        assert after_first == first
        for a, b in ((after_inflow, inflow), (after_outflow, outflow)):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.index, b.index)
            assert np.array_equal(a.count, b.count)


def _handler_spy(server) -> list[threading.Thread]:
    """The thread object that served each connection, in order."""
    seen = []
    finish_request = server.finish_request

    def spy(request, client_address):
        seen.append(threading.current_thread())
        finish_request(request, client_address)

    server.finish_request = spy
    return seen


class TestHandlerThreads:
    def test_sequential_requests_reuse_parked_handlers(self, server):
        # Thread objects, not get_ident(): the OS reuses the ids of
        # exited threads, so ids undercount fresh threads.
        seen = _handler_spy(server)
        for _ in range(20):
            assert _get(server, "/healthz")[0] == 200
        assert len(seen) == 20
        assert len(set(seen)) <= 2

    def test_concurrent_connections_are_all_served(self, server):
        # More clients than cores and a short switch interval, so
        # handlers park and get picked up while others are mid-request.
        seen = _handler_spy(server)
        statuses = []

        def client():
            for _ in range(10):
                statuses.append(_get(server, "/healthz")[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert statuses == [200] * 80
        # Each client holds one connection, and its previous handler
        # may still be parking: two threads per client at most.
        assert len(set(seen)) <= 16

    def test_server_close_ends_every_handler_thread(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        with _serving(PredictionService.for_dataset(model, tiny_dataset)) as http_server:
            seen = _handler_spy(http_server)
            for _ in range(5):
                assert _get(http_server, "/healthz")[0] == 200
        assert seen
        for thread in seen:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in seen)

    def test_server_close_does_not_wait_for_a_silent_client(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        with _serving(PredictionService.for_dataset(model, tiny_dataset)) as http_server:
            silent = socket.create_connection(http_server.server_address[:2])
            assert _get(http_server, "/healthz")[0] == 200  # it was accepted
            http_server.shutdown()
            closer = threading.Thread(target=http_server.server_close)
            closer.start()
            closer.join(timeout=5.0)
            assert not closer.is_alive()
            silent.close()


class TestOverloadMapping:
    def test_503_with_retry_after(self, tiny_dataset):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        service = PredictionService.for_dataset(
            model, tiny_dataset,
            # max_batch=1: without it the dispatcher can coalesce all
            # six requests into one batch before the blocked forward
            # starts, leaving the queue empty and nothing to reject.
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
            results = []

            def call():
                try:
                    results.append(_get(http_server, "/predict"))
                except urllib.error.HTTPError as error:
                    results.append((error.code, dict(error.headers)))

            # Deterministic overload: wedge the dispatcher on one
            # request, fill the depth-1 queue synchronously, and only
            # then issue the request that must bounce with a 503.
            first = threading.Thread(target=call)
            first.start()
            assert picked.wait(timeout=10.0)
            backlog = _Request(None)
            service._queue.put_nowait(backlog)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(http_server, "/predict")
            assert excinfo.value.code == 503
            assert "Retry-After" in dict(excinfo.value.headers)
            release.set()
            first.join(timeout=10.0)
            assert backlog.done.wait(timeout=10.0)  # rejected != dropped
            assert results and results[0][0] == 200
        finally:
            service.stop()
            release.set()
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
