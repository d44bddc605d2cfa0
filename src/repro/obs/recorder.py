"""Run recording: wires the registry, event stream and report together.

:class:`ObservabilityConfig` is the user-facing switch — pass it as
``TrainingConfig(metrics=ObservabilityConfig(out_dir="runs"))`` and the
trainer drives a :class:`RunRecorder` for the duration of ``fit()``:

* the default metrics registry is enabled for the run (and restored
  after), so every counter/histogram laid down across the codebase
  starts recording;
* a :class:`~repro.obs.events.JsonlExporter` is installed as the global
  event sink, capturing run/epoch/span events to
  ``<out_dir>/<run_id>.events.jsonl``;
* on finish, a :class:`~repro.obs.report.RunReport` — per-epoch records
  plus the final metrics snapshot — is written to
  ``<out_dir>/<run_id>.report.json``, next to wherever checkpoints go.
"""

from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

from repro.obs.events import JsonlExporter, set_sink
from repro.obs.registry import default_registry
from repro.obs.report import EpochRecord, RunReport
from repro.obs.trace import enable_tracing

_RUN_SEQ = 0


def _default_run_id() -> str:
    """Unique-enough id: timestamp + pid + per-process sequence number."""
    global _RUN_SEQ
    _RUN_SEQ += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"run-{stamp}-{os.getpid()}-{_RUN_SEQ}"


@dataclasses.dataclass(frozen=True, slots=True)
class ObservabilityConfig:
    """Where and how a training run records its telemetry."""

    out_dir: str = "runs"
    run_id: str | None = None
    #: Also record trace spans for the run, every root trace of it,
    #: into the event stream: the recorder enables tracing for the fit
    #: and restores the previous state in :meth:`RunRecorder.finish`.
    trace: bool = False

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise ValueError("out_dir must be a non-empty path")


class RunRecorder:
    """Owns one run's telemetry lifecycle; created by ``Trainer.fit``.

    Construction enables metrics and installs the event sink; call
    :meth:`record_epoch` once per epoch and :meth:`finish` exactly once
    (idempotent, exception-safe) to persist the report and restore the
    previous global state.
    """

    def __init__(self, config: ObservabilityConfig,
                 run_config: dict | None = None) -> None:
        self.config = config
        self.run_id = config.run_id or _default_run_id()
        self.out_dir = Path(config.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.events_path = self.out_dir / f"{self.run_id}.events.jsonl"
        self.report_path = self.out_dir / f"{self.run_id}.report.json"
        self.registry = default_registry()
        self.report = RunReport(run_id=self.run_id, config=run_config or {})

        self._finished = False
        self._prev_enabled = self.registry.enabled
        self.registry.enabled = True
        self._exporter = JsonlExporter(self.events_path)
        self._prev_sink = set_sink(self._exporter)
        self._exporter.emit("run_start", self.run_id, config=self.report.config)
        self._prev_trace = None
        self._trace_enabled = False
        if config.trace:
            self._prev_trace = enable_tracing(True)
            self._trace_enabled = True

    def record_epoch(
        self,
        epoch: int,
        train_loss: float,
        val_loss: float,
        grad_norm: float | None = None,
        samples_per_sec: float | None = None,
        learning_rate: float | None = None,
        seconds: float | None = None,
    ) -> EpochRecord:
        """Append one epoch to the report and emit the matching event."""
        record = EpochRecord(
            epoch=epoch,
            train_loss=float(train_loss),
            val_loss=float(val_loss),
            grad_norm=None if grad_norm is None else float(grad_norm),
            samples_per_sec=None if samples_per_sec is None else float(samples_per_sec),
            learning_rate=None if learning_rate is None else float(learning_rate),
            seconds=None if seconds is None else float(seconds),
        )
        self.report.epochs.append(record)
        self._exporter.emit("epoch", self.run_id, **dataclasses.asdict(record))
        return record

    def attach(self, key: str, payload: dict) -> None:
        """Stash an extra JSON-serialisable payload in the report."""
        self.report.extra[key] = payload

    def finish(self) -> RunReport:
        """Persist the report, close the stream, restore global state."""
        if self._finished:
            return self.report
        self._finished = True
        if self._trace_enabled:
            enable_tracing(
                self._prev_trace if self._prev_trace is not None else False
            )
            self._trace_enabled = False
        self.report.metrics = self.registry.snapshot()
        self._exporter.emit(
            "run_end", self.run_id,
            epochs=len(self.report.epochs),
            report=self.report_path.name,
        )
        set_sink(self._prev_sink)
        self._exporter.close()
        self.registry.enabled = self._prev_enabled
        self.report.save(self.report_path)
        return self.report

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def __repr__(self) -> str:
        state = "finished" if self._finished else "recording"
        return f"RunRecorder({self.run_id!r}, {state})"
