"""Runtime observability: metrics, tracing, profiling and run reports.

Dependency-free telemetry for the training and serving paths, in three
pillars:

* **metrics** (:mod:`repro.obs.registry`) — counters, gauges and
  fixed-bucket histograms accumulated in a process-global
  :func:`default_registry`. Disabled by default: instrumented call
  sites cost one branch until :func:`enable_metrics` (or a run
  recorder) switches them on.
* **tracing/profiling** (:mod:`repro.obs.trace`,
  :mod:`repro.obs.profiler`) — request and run tracing
  (:func:`trace_span`, W3C ``traceparent`` propagation,
  ``python -m repro.obs.trace`` timeline reconstruction); and
  :func:`profile` for per-op call counts / wall time / bytes over the
  backend op registry, installed only for the duration of the ``with``
  block.
* **quality/SLOs** (:mod:`repro.obs.quality`, :mod:`repro.obs.slo`) —
  continuous forecast-quality monitoring (forecasts reconciled against
  realized flows, rolling RMSE/MAE that bit-match
  :mod:`repro.eval.metrics`, drift detection against a
  checkpoint-embedded baseline) and declarative service-level
  objectives evaluated from the live registry.
* **exporters and reports** (:mod:`repro.obs.events`,
  :mod:`repro.obs.prometheus`, :mod:`repro.obs.report`) — a JSONL event
  stream, a Prometheus-style text exposition for serving scrapes, and
  the :class:`RunReport` artifact rendered by
  ``python -m repro.obs.report``.

Quickstart::

    from repro import Trainer, TrainingConfig
    from repro.obs import ObservabilityConfig

    config = TrainingConfig(epochs=5, metrics=ObservabilityConfig("runs"))
    Trainer(model, dataset, config).fit()
    # runs/run-*.events.jsonl + runs/run-*.report.json
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    TIME_BUCKETS,
    VALUE_BUCKETS,
    default_registry,
    enable_metrics,
    metrics_enabled,
    metrics_scope,
)
from repro.obs.events import (
    EVENT_KINDS,
    JsonlExporter,
    active_sink,
    emit_event,
    make_event,
    read_events,
    set_sink,
    sink_scope,
    validate_event,
)
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    TraceConfig,
    TraceContext,
    current_context,
    enable_tracing,
    format_traceparent,
    parse_traceparent,
    record_span,
    seed_trace_ids,
    trace_scope,
    trace_span,
    trace_status,
    tracing_enabled,
)
from repro.obs.quality import QualityBaseline, QualityConfig, QualityMonitor
from repro.obs.slo import SLOConfig, evaluate_slos, histogram_quantile
from repro.obs.profiler import FUSED_OPS, OpProfile, OpStat, profile
from repro.obs.prometheus import prometheus_text
from repro.obs.report import EpochRecord, RunReport, render_report
from repro.obs.recorder import ObservabilityConfig, RunRecorder

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "TIME_BUCKETS",
    "VALUE_BUCKETS",
    "default_registry",
    "enable_metrics",
    "metrics_enabled",
    "metrics_scope",
    # events
    "EVENT_KINDS",
    "JsonlExporter",
    "active_sink",
    "emit_event",
    "make_event",
    "read_events",
    "set_sink",
    "sink_scope",
    "validate_event",
    # tracing / profiling
    "TRACEPARENT_HEADER",
    "TraceConfig",
    "TraceContext",
    "current_context",
    "enable_tracing",
    "format_traceparent",
    "parse_traceparent",
    "record_span",
    "seed_trace_ids",
    "trace_scope",
    "trace_span",
    "trace_status",
    "tracing_enabled",
    # quality / SLOs
    "QualityBaseline",
    "QualityConfig",
    "QualityMonitor",
    "SLOConfig",
    "evaluate_slos",
    "histogram_quantile",
    "profile",
    "OpProfile",
    "OpStat",
    "FUSED_OPS",
    # exporters / reports
    "prometheus_text",
    "EpochRecord",
    "RunReport",
    "render_report",
    "ObservabilityConfig",
    "RunRecorder",
]
