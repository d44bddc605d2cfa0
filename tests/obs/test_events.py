"""JSONL event stream: schema validation and round-trip."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    JsonlExporter,
    emit_event,
    make_event,
    read_events,
    set_sink,
    sink_scope,
    validate_event,
)


class TestSchema:
    def test_make_event_conforms(self):
        event = make_event("epoch", "trainer", {"epoch": 0, "loss": 0.5})
        validate_event(event)
        assert event["kind"] == "epoch"
        assert event["data"]["loss"] == 0.5

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"kind": "epoch", "name": "x", "data": {}},              # missing ts
        {"ts": 1.0, "kind": "nope", "name": "x", "data": {}},    # bad kind
        {"ts": 1.0, "kind": "epoch", "name": "", "data": {}},    # empty name
        {"ts": 1.0, "kind": "epoch", "name": "x", "data": []},   # bad data
        {"ts": 1.0, "kind": "epoch", "name": "x", "data": {}, "zzz": 1},
        {"ts": True, "kind": "epoch", "name": "x", "data": {}},  # bool ts
    ])
    def test_bad_events_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_event(bad)


class TestJsonlRoundTrip:
    def test_emit_read_validate(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        with JsonlExporter(path) as exporter:
            first = exporter.emit("run_start", "run-1", config={"epochs": 2})
            second = exporter.emit("epoch", "run-1", epoch=0, train_loss=0.25)
        events = read_events(path, validate=True)
        assert events == [first, second]

    def test_invalid_line_pinpointed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(make_event("event", "x")) + "\n" + "{not json}\n"
        )
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events(path)

    def test_schema_violation_pinpointed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 1.0, "kind": "nope", "name": "x", "data": {}}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_events(path)
        # validation can be turned off for forensic reads
        assert len(read_events(path, validate=False)) == 1

    def test_closed_exporter_raises(self, tmp_path):
        exporter = JsonlExporter(tmp_path / "x.jsonl")
        exporter.close()
        with pytest.raises(RuntimeError):
            exporter.emit("event", "x")


class TestGlobalSink:
    def test_emit_without_sink_is_noop(self):
        assert emit_event("event", "orphan") is None

    def test_sink_scope_routes_and_restores(self, tmp_path):
        path = tmp_path / "scoped.jsonl"
        with sink_scope(JsonlExporter(path)) as sink:
            emit_event("event", "inside", value=1)
            sink.close()
        assert emit_event("event", "outside") is None
        events = read_events(path)
        assert [e["name"] for e in events] == ["inside"]

    def test_set_sink_returns_previous(self, tmp_path):
        sink = JsonlExporter(tmp_path / "a.jsonl")
        assert set_sink(sink) is None
        assert set_sink(None) is sink
        sink.close()


class TestRotation:
    def test_unbounded_by_default(self, tmp_path):
        with JsonlExporter(tmp_path / "u.jsonl") as exporter:
            for i in range(50):
                exporter.emit("event", "tick", i=i)
            assert exporter.rotations == 0
        assert len(read_events(tmp_path / "u.jsonl")) == 50

    def test_max_bytes_rotates_to_single_backup(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with JsonlExporter(path, max_bytes=200) as exporter:
            for i in range(20):
                exporter.emit("event", "tick", i=i)
            assert exporter.rotations > 0
            assert exporter.rotated_path.exists()
        # at most two generations, newest events in the live file
        live = read_events(path)
        backup = read_events(exporter.rotated_path)
        assert live[-1]["data"]["i"] == 19
        assert backup[-1]["data"]["i"] == live[0]["data"]["i"] - 1

    def test_never_rotates_an_empty_file(self, tmp_path):
        path = tmp_path / "big.jsonl"
        with JsonlExporter(path, max_bytes=10) as exporter:
            # one event is already over the limit, but an empty file
            # must absorb it rather than rotate forever
            exporter.emit("event", "huge", payload="x" * 100)
            assert exporter.rotations == 0
            exporter.emit("event", "next")
            assert exporter.rotations == 1
        assert len(read_events(path)) == 1

    def test_destroyed_generation_counts_events_dropped(
        self, tmp_path, clean_telemetry
    ):
        registry = clean_telemetry
        registry.enabled = True
        path = tmp_path / "d.jsonl"
        # Room for two tick lines, not three (a line's length varies by
        # a few bytes with its timestamp).
        line = len(json.dumps(make_event("event", "tick", {"i": 0}))) + 1
        with JsonlExporter(path, max_bytes=line * 5 // 2) as exporter:
            for i in range(4):  # fills live + one .1 backup: nothing lost
                exporter.emit("event", "tick", i=i)
            assert registry.counter("obs.events_dropped").value == 0
            for i in range(4, 8):  # now each rotation destroys a .1
                exporter.emit("event", "tick", i=i)
            assert registry.counter("obs.events_dropped").value == 4

    def test_append_resumes_against_existing_size(self, tmp_path):
        path = tmp_path / "a.jsonl"
        with JsonlExporter(path) as exporter:
            exporter.emit("event", "old")
        size = path.stat().st_size
        with JsonlExporter(path, max_bytes=size + 10) as exporter:
            exporter.emit("event", "new")  # pushes past the bound
            assert exporter.rotations == 1

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlExporter(tmp_path / "x.jsonl", max_bytes=0)
