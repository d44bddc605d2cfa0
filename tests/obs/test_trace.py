"""Distributed tracing: header parsing, spans, sampling, CLI."""

from __future__ import annotations

import pytest

from repro.obs import set_sink
from repro.obs.events import JsonlExporter, read_events
from repro.obs.trace import (
    NULL_SPAN,
    TraceConfig,
    TraceContext,
    current_context,
    enable_tracing,
    format_traceparent,
    group_traces,
    main as trace_main,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    record_span,
    render_trace,
    seed_trace_ids,
    trace_scope,
    trace_span,
    trace_spans,
    trace_status,
    tracing_enabled,
)

VALID = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"


@pytest.fixture(autouse=True)
def tracing_off():
    """Every test starts from tracing-disabled."""
    previous = enable_tracing(False)
    yield
    enable_tracing(previous if previous is not None else False)


class TestTraceparent:
    def test_round_trip(self):
        ctx = parse_traceparent(VALID)
        assert ctx == TraceContext(
            "0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331", True
        )
        assert format_traceparent(ctx) == VALID

    def test_unsampled_flags(self):
        ctx = parse_traceparent(VALID[:-2] + "00")
        assert ctx is not None and ctx.sampled is False
        assert format_traceparent(ctx).endswith("-00")

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        "00-abc-def-01",  # wrong field lengths
        VALID.replace("-01", ""),  # missing flags
        "ff-" + VALID[3:],  # version ff is forbidden
        "zz-" + VALID[3:],  # non-hex version
        "00-" + "0" * 32 + "-b7ad6b7169203331-01",  # all-zero trace id
        "00-0af7651916cd43dd8448eb211c80319c-" + "0" * 16 + "-01",
        VALID + "-extra",
        VALID.replace("b7ad", "B7AD") + "x",  # trailing junk
    ])
    def test_malformed_parses_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_case_insensitive(self):
        assert parse_traceparent(VALID.upper()) is not None


class TestIds:
    def test_deterministic_after_seeding(self):
        seed_trace_ids(99)
        first = (new_trace_id(), new_span_id())
        seed_trace_ids(99)
        assert (new_trace_id(), new_span_id()) == first

    def test_shapes(self):
        seed_trace_ids(1)
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16


class TestSpans:
    def test_disabled_returns_shared_null_span(self):
        assert trace_span("anything") is NULL_SPAN
        with trace_span("nested") as span:
            span.set(key="value")
            assert span.ctx is None
        assert current_context() is None

    def test_nesting_builds_parent_chain(self, tmp_path):
        sink = JsonlExporter(tmp_path / "t.jsonl")
        set_sink(sink)
        with trace_scope(TraceConfig()):
            seed_trace_ids(5)
            with trace_span("outer") as outer:
                assert current_context() == outer.ctx
                with trace_span("inner") as inner:
                    assert inner.ctx.trace_id == outer.ctx.trace_id
                    assert inner.parent_span_id == outer.ctx.span_id
            assert current_context() is None
        sink.close()
        spans = trace_spans(read_events(sink.path))
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[1]["data"]["parent_span_id"] is None

    def test_explicit_parent_and_links(self, tmp_path):
        sink = JsonlExporter(tmp_path / "t.jsonl")
        set_sink(sink)
        parent = TraceContext("ab" * 16, "cd" * 8, True)
        with trace_scope(TraceConfig()):
            with trace_span("child", parent=parent):
                assert current_context().trace_id == parent.trace_id
            with trace_span("batch", parent=None, links=(parent,)) as batch:
                assert batch.ctx.trace_id != parent.trace_id
        sink.close()
        spans = {s["name"]: s["data"] for s in trace_spans(read_events(sink.path))}
        assert spans["child"]["parent_span_id"] == parent.span_id
        assert spans["batch"]["links"] == [[parent.trace_id, parent.span_id]]

    def test_exception_marks_span_errored(self, tmp_path):
        sink = JsonlExporter(tmp_path / "t.jsonl")
        set_sink(sink)
        with trace_scope(TraceConfig()):
            with pytest.raises(ValueError):
                with trace_span("boom"):
                    raise ValueError("nope")
        sink.close()
        [span] = trace_spans(read_events(sink.path))
        assert span["data"]["attrs"]["status"] == "error"
        assert span["data"]["attrs"]["error"] == "ValueError"

    def test_sample_rate_zero_records_nothing(self, tmp_path):
        sink = JsonlExporter(tmp_path / "t.jsonl")
        set_sink(sink)
        with trace_scope(TraceConfig(sample_rate=0.0)):
            with trace_span("root") as root:
                assert root.recorded is False
                # children inherit the negative decision
                with trace_span("child") as child:
                    assert child.recorded is False
            assert record_span("after", root.ctx, 0.0, 1.0) is None
        sink.close()
        assert trace_spans(read_events(sink.path)) == []

    def test_unsampled_links_keep_batch_unrecorded(self):
        with trace_scope(TraceConfig()):
            unsampled = TraceContext("ab" * 16, "cd" * 8, False)
            with trace_span("batch", parent=None, links=(unsampled,)) as span:
                assert span.recorded is False

    def test_record_span_after_the_fact(self, tmp_path):
        sink = JsonlExporter(tmp_path / "t.jsonl")
        set_sink(sink)
        parent = TraceContext("ab" * 16, "cd" * 8, True)
        with trace_scope(TraceConfig()):
            ctx = record_span("queue.wait", parent, 123.0, 0.25, depth=3)
            assert ctx.trace_id == parent.trace_id
        sink.close()
        [span] = trace_spans(read_events(sink.path))
        assert span["data"]["start_ts"] == 123.0
        assert span["data"]["duration_seconds"] == 0.25
        assert span["data"]["parent_span_id"] == parent.span_id

    def test_status_reports_config(self):
        assert trace_status() == {"enabled": False}
        with trace_scope(TraceConfig(sample_rate=0.5, profile_ops=False)):
            assert tracing_enabled()
            status = trace_status()
            assert status["sample_rate"] == 0.5
            assert status["profile_ops"] is False


class TestCli:
    @pytest.fixture
    def stream(self, tmp_path):
        path = tmp_path / "run.events.jsonl"
        sink = JsonlExporter(path)
        set_sink(sink)
        with trace_scope(TraceConfig()):
            seed_trace_ids(11)
            with trace_span("http.predict", method="GET") as request:
                record_span("serve.queue", request.ctx, request.start_ts, 0.001)
            with trace_span("serve.batch", parent=None,
                            links=(request.ctx,), batch_size=1):
                with trace_span("serve.forward", slot=9):
                    pass
        sink.close()
        return path

    def test_render_inlines_linked_batch(self, stream):
        traces = group_traces(trace_spans(read_events(stream)))
        request_id = next(
            tid for tid, group in traces.items()
            if any(e["name"] == "http.predict" for e in group)
        )
        text = render_trace(traces, request_id)
        assert "http.predict" in text
        assert "serve.queue" in text
        assert "↳ serve.batch" in text  # linked from the other trace
        assert "serve.forward" in text

    def test_cli_list_and_render(self, stream, capsys):
        assert trace_main([str(stream), "--list"]) == 0
        assert "http.predict" in capsys.readouterr().out
        assert trace_main([str(stream)]) == 0
        assert "serve.forward" in capsys.readouterr().out

    def test_cli_errors(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "missing.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trace_main([str(empty)]) == 1
        capsys.readouterr()
