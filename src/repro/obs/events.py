"""JSONL event stream: schema, writer, reader, validation.

Every structured thing a run emits — run start/end, per-epoch training
records, span timings, ad-hoc events — is one JSON object per line in a
``*.events.jsonl`` file. The schema is deliberately flat and stable so
downstream tooling (the report CLI, CI validation, future dashboards)
can consume streams from any version of the library:

.. code-block:: json

    {"ts": 1754400000.123, "kind": "epoch", "name": "epoch",
     "data": {"epoch": 0, "train_loss": 0.12}}

``ts`` is a Unix wall-clock timestamp (floats inside ``data`` carry the
monotonic durations), ``kind`` is one of :data:`EVENT_KINDS`, ``name``
identifies the emitter and ``data`` is a JSON object of payload fields.

A process-global *sink* carries the active exporter: library code calls
:func:`emit_event` unconditionally (a no-op dict lookup when no sink is
installed) and the run recorder scopes a :class:`JsonlExporter` in for
the duration of a run.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from typing import IO, Iterator

from repro.obs.registry import default_registry

#: Closed set of event kinds; extend deliberately, never ad hoc.
EVENT_KINDS = ("run_start", "epoch", "run_end", "span", "metric", "event")


def make_event(kind: str, name: str, data: dict | None = None,
               ts: float | None = None) -> dict:
    """Build a schema-conforming event dict."""
    event = {
        "ts": time.time() if ts is None else float(ts),
        "kind": kind,
        "name": name,
        "data": dict(data) if data else {},
    }
    validate_event(event)
    return event


def validate_event(event: object) -> dict:
    """Check one event against the schema; raises ``ValueError`` if bad."""
    if not isinstance(event, dict):
        raise ValueError(f"event must be an object, got {type(event).__name__}")
    extra = set(event) - {"ts", "kind", "name", "data"}
    missing = {"ts", "kind", "name", "data"} - set(event)
    if extra or missing:
        raise ValueError(
            f"event keys must be ts/kind/name/data (missing={sorted(missing)}, "
            f"extra={sorted(extra)})"
        )
    if not isinstance(event["ts"], (int, float)) or isinstance(event["ts"], bool):
        raise ValueError(f"ts must be a number, got {event['ts']!r}")
    if event["kind"] not in EVENT_KINDS:
        raise ValueError(f"kind must be one of {EVENT_KINDS}, got {event['kind']!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        raise ValueError(f"name must be a non-empty string, got {event['name']!r}")
    if not isinstance(event["data"], dict):
        raise ValueError(f"data must be an object, got {type(event['data']).__name__}")
    return event


class JsonlExporter:
    """Append-only JSONL event writer with bounded-size rotation.

    Lines are flushed per event — a crashed run keeps everything emitted
    up to the failure, which is exactly when the stream matters most.

    ``max_bytes`` bounds the stream for long-lived processes (a serving
    box cannot append forever): when the current file would exceed it,
    the file is renamed to ``<path>.1`` (replacing, and thereby
    destroying, any previous ``.1``) and a fresh file is started, so at
    most two generations exist on disk. Events destroyed with an old
    ``.1`` are counted in the ``obs.events_dropped`` counter —
    truncation is visible, never silent. With ``max_bytes=None`` (the
    default) the stream is an unbounded append.

    Thread-safe: serving handler threads, the dispatcher, and rollover
    listeners all emit concurrently.
    """

    def __init__(self, path: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.rotations = 0
        self._lock = threading.Lock()
        self._dropped_counter = default_registry().counter("obs.events_dropped")
        self._bytes = 0
        if self.path.exists() and max_bytes is not None:
            # Appending to an existing stream: its current size counts
            # against the bound.
            self._bytes = self.path.stat().st_size
        self._file: IO[str] | None = self.path.open("a", encoding="utf-8")

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def _would_exceed(self, nbytes: int) -> bool:
        return (
            self.max_bytes is not None
            and self._bytes + nbytes > self.max_bytes
            and self._bytes > 0  # never rotate an empty file
        )

    def _rotate(self) -> None:
        # Called under self._lock. The outgoing .1 generation (if any)
        # is destroyed — count its lines as dropped first.
        rotated = self.rotated_path
        if rotated.exists():
            with rotated.open("rb") as fh:
                destroyed = sum(1 for _ in fh)
            if destroyed:
                self._dropped_counter.inc(destroyed)
        self._file.close()
        self.path.replace(rotated)
        self._file = self.path.open("a", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def emit(self, kind: str, name: str, **data) -> dict:
        """Write (and return) one event. Raises if the exporter is closed."""
        event = make_event(kind, name, data)
        line = json.dumps(event) + "\n"
        with self._lock:
            if self._file is None:
                raise RuntimeError(f"exporter for {self.path} is closed")
            if self._would_exceed(len(line)):
                self._rotate()
            self._file.write(line)
            self._file.flush()
            self._bytes += len(line)
        return event

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._file is None else "open"
        return f"JsonlExporter({str(self.path)!r}, {state})"


def read_events(path: str | Path, validate: bool = True) -> list[dict]:
    """Load a JSONL event stream; optionally schema-validate every line."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if validate:
                try:
                    validate_event(event)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            events.append(event)
    return events


# ----------------------------------------------------------------------
# Process-global sink
# ----------------------------------------------------------------------
_SINK: JsonlExporter | None = None


def active_sink() -> JsonlExporter | None:
    """The exporter :func:`emit_event` currently writes to, if any."""
    return _SINK


def set_sink(sink: JsonlExporter | None) -> JsonlExporter | None:
    """Install ``sink`` as the global event sink; returns the previous one."""
    global _SINK
    previous = _SINK
    _SINK = sink
    return previous


@contextlib.contextmanager
def sink_scope(sink: JsonlExporter | None) -> Iterator[JsonlExporter | None]:
    """Scope the global sink to a ``with`` block (exception-safe)."""
    previous = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(previous)


def emit_event(kind: str, name: str, **data) -> dict | None:
    """Emit to the active sink, or do nothing when none is installed."""
    if _SINK is None:
        return None
    return _SINK.emit(kind, name, **data)
