"""Distributed tracing: follow one request through the whole system.

The metrics registry answers "how many / how long on average"; tracing
answers "what happened to *this* request". A **trace** is a tree of
**spans** sharing a 32-hex ``trace_id``; each span carries a 16-hex
``span_id``, its parent's span id, a wall-clock ``start_ts`` and a
monotonic duration. Spans export to the existing JSONL event stream
(kind ``"span"``) through :func:`repro.obs.events.emit_event`, so one
file holds metrics, run records and traces — and
``python -m repro.obs.trace events.jsonl`` reconstructs per-request
timelines from it (HTTP → queue wait → batch assembly → forward →
serialize).

Design points, in the same spirit as the metrics registry:

* **One branch when disabled.** :func:`trace_span` returns a shared
  no-op span object unless :func:`enable_tracing` installed a
  :class:`TraceConfig`; uninstrumented runs pay one module-global read
  per call site and allocate nothing.
* **Deterministic IDs.** Trace/span ids come from a seeded
  ``blake2b(seed:counter)`` stream (:func:`seed_trace_ids`), so tests
  and replays get stable ids.
* **W3C-style propagation.** :func:`format_traceparent` /
  :func:`parse_traceparent` speak the ``traceparent`` header format
  (``00-<trace-id>-<span-id>-<flags>``); a malformed or missing header
  parses to ``None`` and the callee starts a fresh root span.
* **Context, not stacks.** The current span context lives in a
  :mod:`contextvars` variable, so it follows the request across
  ``with`` blocks and into helper calls; crossing a *thread* boundary
  (e.g. the serving micro-batch queue) carries the
  :class:`TraceContext` explicitly on the queued request.
* **Links.** A span may *link* to spans of other traces — the serving
  batch span links the N request spans it served, which is how one
  forward pass is attributed to every rider who shared it.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import hashlib
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.obs.events import emit_event

#: HTTP header carrying trace context, per the W3C Trace Context spec.
TRACEPARENT_HEADER = "traceparent"

_TRACE_ID_BYTES = 16
_SPAN_ID_BYTES = 8
_HEX = set("0123456789abcdef")


# ----------------------------------------------------------------------
# Context + header format
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TraceContext:
    """Immutable (trace_id, span_id, sampled) triple a span propagates."""

    trace_id: str  # 32 lowercase hex chars
    span_id: str  # 16 lowercase hex chars
    sampled: bool = True


def format_traceparent(ctx: TraceContext) -> str:
    """Render a context as a ``traceparent`` header value."""
    flags = "01" if ctx.sampled else "00"
    return f"00-{ctx.trace_id}-{ctx.span_id}-{flags}"


def _hex_field(value: str, length: int) -> bool:
    return len(value) == length and set(value) <= _HEX and set(value) != {"0"}


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` for missing/malformed.

    Callers treat ``None`` as "no incoming context" and start a fresh
    root span — a garbled header from a buggy client degrades to an
    untraced-parent request, never an error.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or set(version) - _HEX or version == "ff":
        return None
    if not _hex_field(trace_id, 2 * _TRACE_ID_BYTES):
        return None
    if not _hex_field(span_id, 2 * _SPAN_ID_BYTES):
        return None
    if len(flags) != 2 or set(flags) - _HEX:
        return None
    return TraceContext(trace_id, span_id, sampled=bool(int(flags, 16) & 1))


# ----------------------------------------------------------------------
# Configuration (module-global, one read on the disabled fast path)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Tracing knobs. ``sample_rate`` decides which *root* traces record
    their spans (children inherit the decision through the context);
    ``profile_ops`` attaches per-op forward timing to sampled serving
    forward spans via :func:`repro.obs.profiler.profile`."""

    sample_rate: float = 1.0
    profile_ops: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )


_CONFIG: TraceConfig | None = None


def tracing_enabled() -> bool:
    """Whether spans record anywhere (the disabled path's one branch)."""
    return _CONFIG is not None


def trace_config() -> TraceConfig | None:
    return _CONFIG


def enable_tracing(
    config: TraceConfig | bool | None = True,
) -> TraceConfig | None:
    """Install (or clear, with ``False``/``None``) the tracing config.

    Returns the previous config so callers can restore it.
    """
    global _CONFIG
    previous = _CONFIG
    if config is True:
        config = TraceConfig()
    elif config is False:
        config = None
    _CONFIG = config
    return previous


@contextlib.contextmanager
def trace_scope(config: TraceConfig | bool = True) -> Iterator[None]:
    """Scope tracing on (or to a specific config) for a ``with`` block."""
    previous = enable_tracing(config)
    try:
        yield
    finally:
        enable_tracing(previous if previous is not None else False)


def trace_status() -> dict:
    """Small JSON-able summary for ``/status``-style endpoints."""
    if _CONFIG is None:
        return {"enabled": False}
    return {
        "enabled": True,
        "sample_rate": _CONFIG.sample_rate,
        "profile_ops": _CONFIG.profile_ops,
    }


# ----------------------------------------------------------------------
# Deterministic id generation
# ----------------------------------------------------------------------
_ID_SEED: int | None = None
_ID_COUNTER = 0


def seed_trace_ids(seed: int) -> None:
    """Pin the id stream (tests, replays)."""
    global _ID_SEED, _ID_COUNTER
    _ID_SEED = int(seed)
    _ID_COUNTER = 0


def _next_id(nbytes: int) -> str:
    global _ID_SEED, _ID_COUNTER
    if _ID_SEED is None:
        # Default seed: stable within a process, distinct across them.
        _ID_SEED = os.getpid()
    while True:
        _ID_COUNTER += 1
        digest = hashlib.blake2b(
            f"{_ID_SEED}:{_ID_COUNTER}".encode(), digest_size=nbytes
        ).hexdigest()
        if set(digest) != {"0"}:  # all-zero ids are invalid per W3C
            return digest


def new_trace_id() -> str:
    return _next_id(_TRACE_ID_BYTES)


def new_span_id() -> str:
    return _next_id(_SPAN_ID_BYTES)


def _sampled(trace_id: str, rate: float) -> bool:
    """Deterministic per-trace sampling decision from the id itself."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return int(trace_id[:8], 16) / float(0xFFFFFFFF) < rate


# ----------------------------------------------------------------------
# Current context
# ----------------------------------------------------------------------
_CURRENT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The innermost active span's context (follows contextvars)."""
    return _CURRENT.get()


def _record(name: str, ctx: TraceContext, parent_span_id: str | None,
            links: tuple[TraceContext, ...], start_ts: float,
            duration: float, attrs: dict) -> None:
    data: dict = {
        "trace_id": ctx.trace_id,
        "span_id": ctx.span_id,
        "parent_span_id": parent_span_id,
        "start_ts": start_ts,
        "duration_seconds": duration,
    }
    if links:
        data["links"] = [[link.trace_id, link.span_id] for link in links]
    if attrs:
        data["attrs"] = attrs
    emit_event("span", name, **data)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared no-op span: the entire cost of tracing-disabled code."""

    __slots__ = ()
    ctx = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()

_PARENT_FROM_CONTEXT = object()  # trace_span's "use the current context"


class TraceSpan:
    """One live span; use as a context manager (``with trace_span(...)``)."""

    __slots__ = ("name", "ctx", "parent_span_id", "links", "attrs",
                 "recorded", "start_ts", "_start_perf", "_token")

    def __init__(self, name: str, ctx: TraceContext,
                 parent_span_id: str | None,
                 links: tuple[TraceContext, ...],
                 recorded: bool, attrs: dict) -> None:
        self.name = name
        self.ctx = ctx
        self.parent_span_id = parent_span_id
        self.links = links
        self.recorded = recorded
        self.attrs = attrs
        self.start_ts = 0.0
        self._start_perf = 0.0
        self._token: contextvars.Token | None = None

    def set(self, **attrs) -> "TraceSpan":
        """Attach attributes (JSON-serialisable) to the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "TraceSpan":
        self.start_ts = time.time()
        self._start_perf = time.perf_counter()
        self._token = _CURRENT.set(self.ctx)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_perf
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        if self.recorded:
            if exc_type is not None and "status" not in self.attrs:
                self.attrs["status"] = "error"
                self.attrs["error"] = exc_type.__name__
            _record(self.name, self.ctx, self.parent_span_id, self.links,
                    self.start_ts, duration, self.attrs)
        return False

    def __repr__(self) -> str:
        return (f"TraceSpan({self.name!r}, trace={self.ctx.trace_id[:8]}, "
                f"span={self.ctx.span_id})")


def trace_span(name: str, parent=_PARENT_FROM_CONTEXT,
               links: tuple[TraceContext, ...] = (), **attrs):
    """Open a span (context manager). The one-liner of the trace API.

    ``parent`` defaults to the current context (so nested ``with``
    blocks build the tree automatically); pass an explicit
    :class:`TraceContext` to parent across a thread/process boundary, or
    ``None`` to force a fresh root. A root span makes the sampling
    decision (or, when it ``links`` other spans, records iff any linked
    trace is sampled); children inherit it. When tracing is disabled
    this returns a shared no-op object — one global read, no allocation.
    """
    config = _CONFIG
    if config is None:
        return NULL_SPAN
    if parent is _PARENT_FROM_CONTEXT:
        parent = _CURRENT.get()
    links = tuple(links)
    if parent is not None:
        trace_id = parent.trace_id
        parent_span_id = parent.span_id
        sampled = parent.sampled
    else:
        trace_id = new_trace_id()
        parent_span_id = None
        if links:
            sampled = any(link.sampled for link in links)
        else:
            sampled = _sampled(trace_id, config.sample_rate)
    ctx = TraceContext(trace_id, new_span_id(), sampled)
    return TraceSpan(name, ctx, parent_span_id, links, sampled, dict(attrs))


def record_span(name: str, parent: TraceContext | None, start_ts: float,
                duration_seconds: float, **attrs) -> TraceContext | None:
    """Record a span after the fact, from explicit timestamps.

    Used where the interval is only known in retrospect — e.g. the
    serving queue wait, measured by stamps taken on two different
    threads. No-op (returns ``None``) when tracing is disabled, the
    parent is missing, or the parent's trace is unsampled.
    """
    if _CONFIG is None or parent is None or not parent.sampled:
        return None
    ctx = TraceContext(parent.trace_id, new_span_id(), True)
    _record(name, ctx, parent.span_id, (), float(start_ts),
            float(duration_seconds), dict(attrs))
    return ctx


# ----------------------------------------------------------------------
# Timeline reconstruction CLI: python -m repro.obs.trace
# ----------------------------------------------------------------------
def trace_spans(events: list[dict]) -> list[dict]:
    """The trace spans in an event stream (kind=span with a trace_id)."""
    return [e for e in events
            if e.get("kind") == "span" and "trace_id" in e.get("data", {})]


def group_traces(spans: list[dict]) -> dict[str, list[dict]]:
    """trace_id → spans, each list sorted by start timestamp."""
    traces: dict[str, list[dict]] = {}
    for event in spans:
        traces.setdefault(event["data"]["trace_id"], []).append(event)
    for group in traces.values():
        group.sort(key=lambda e: e["data"]["start_ts"])
    return traces


def _children(group: list[dict]) -> dict[str | None, list[dict]]:
    ids = {e["data"]["span_id"] for e in group}
    children: dict[str | None, list[dict]] = {}
    for event in group:
        parent = event["data"].get("parent_span_id")
        if parent not in ids:
            parent = None  # orphaned parents render as roots
        children.setdefault(parent, []).append(event)
    return children


def link_index(traces: dict[str, list[dict]]) -> dict[str, dict[str, list[dict]]]:
    """trace_id → span_id → spans of *other* traces linking to that span.

    One pass over every span of the stream; :func:`render_trace` takes
    it so that rendering many traces does not rescan the stream each time.
    """
    index: dict[str, dict[str, list[dict]]] = {}
    for other_id, group in traces.items():
        for event in group:
            for link in event["data"].get("links", ()):
                if link[0] != other_id:
                    index.setdefault(link[0], {}).setdefault(link[1], []).append(event)
    return index


def _fmt_attrs(attrs: dict) -> str:
    parts = []
    for key, value in attrs.items():
        if key == "ops":
            ops = ", ".join(
                f"{op}×{int(stat['calls'])}"
                for op, stat in list(value.items())[:4]
            )
            parts.append(f"ops=[{ops}]")
        else:
            parts.append(f"{key}={value}")
    return "  " + " ".join(parts) if parts else ""


def render_trace(traces: dict[str, list[dict]], trace_id: str,
                 links: dict[str, dict[str, list[dict]]] | None = None) -> str:
    """One trace as an indented timeline, linked spans inlined.

    ``links`` is :func:`link_index` of ``traces``, built here when not
    given.
    """
    if links is None:
        links = link_index(traces)
    group = traces[trace_id]
    t0 = min(e["data"]["start_ts"] for e in group)
    lines = [f"trace {trace_id}  ({len(group)} spans)"]

    def render(event: dict, depth: int, children: dict, linked: dict,
               marker: str = "") -> None:
        """``event`` and its subtree. A span from another trace that links
        one of ours (the batch serving this request) renders in place
        under a ``↳`` marker, with its own subtree but not its links."""
        data = event["data"]
        lines.append(
            f"  {'  ' * depth}{marker}"
            f"{event['name']:<{max(2, 34 - 2 * depth - len(marker))}} "
            f"+{(data['start_ts'] - t0) * 1e3:9.3f}ms  "
            f"{data['duration_seconds'] * 1e3:9.3f}ms"
            f"{_fmt_attrs(data.get('attrs', {}))}"
        )
        for child in children.get(data["span_id"], ()):
            render(child, depth + 1, children, linked)
        for link_event in linked.get(data["span_id"], ()):
            other = traces[link_event["data"]["trace_id"]]
            render(link_event, depth + 1, _children(other), {}, marker="↳ ")

    children = _children(group)
    for root in children.get(None, ()):
        render(root, 0, children, links.get(trace_id, {}))
    return "\n".join(lines)


def _trace_summary(trace_id: str, group: list[dict]) -> str:
    roots = [e for e in group if e["data"].get("parent_span_id") is None]
    root = roots[0] if roots else group[0]
    return (f"{trace_id}  {root['name']:<20} "
            f"{root['data']['duration_seconds'] * 1e3:9.3f}ms  "
            f"{len(group)} spans")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Reconstruct per-request timelines from a JSONL "
                    "event stream.",
    )
    parser.add_argument("path", type=Path, help="a *.events.jsonl file")
    parser.add_argument("--trace", default=None,
                        help="render only this trace id")
    parser.add_argument("--list", action="store_true",
                        help="one summary line per trace")
    args = parser.parse_args(argv)

    from repro.obs.events import read_events

    try:
        events = read_events(args.path)
    except (FileNotFoundError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1
    traces = group_traces(trace_spans(events))
    if not traces:
        print(f"no trace spans in {args.path}", file=sys.stderr)
        return 1

    if args.list:
        for trace_id, group in traces.items():
            print(_trace_summary(trace_id, group))
        return 0

    if args.trace is not None:
        if args.trace not in traces:
            print(f"trace {args.trace} not found", file=sys.stderr)
            return 1
        print(render_trace(traces, args.trace))
        return 0

    # Default: render request traces (http.* roots) if any, else every
    # trace. A batch trace linked from a request renders inside it.
    request_ids = [
        tid for tid, group in traces.items()
        if any(e["data"].get("parent_span_id") is None
               and e["name"].startswith("http.") for e in group)
    ]
    links = link_index(traces)
    for tid in request_ids or traces:
        print(render_trace(traces, tid, links))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
