"""Prometheus-style text exposition of a metrics registry.

Renders the registry in the Prometheus text format (``# HELP`` /
``# TYPE`` comments, ``_total`` counter suffix, cumulative
``_bucket{le=...}`` histogram series) so a serving process can answer a
``/metrics`` scrape — or a human can eyeball the numbers — without any
client library. Only the exposition *format* is borrowed; there is no
HTTP server here.

Label values are escaped per the exposition-format spec (backslash,
double-quote and newline), both for the histogram ``le`` label and for
any constant labels passed to :func:`prometheus_text` — a deployment
name containing a quote must not break every scraper downstream.
"""

from __future__ import annotations

import math
import re

from repro.obs.registry import Counter, Gauge, Histogram, Registry, default_registry

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")

#: Help strings for the well-known metric families, longest prefix
#: wins — per-horizon series share one entry. Metrics
#: outside the table still get a HELP line (scrapers and humans both
#: expect one) with a generic description.
_HELP_PREFIXES: tuple[tuple[str, str], ...] = (
    ("serve.request_seconds", "End-to-end /predict latency in seconds."),
    ("serve.batch_size", "Requests coalesced per micro-batch."),
    ("serve.requests", "Predict requests admitted to the queue."),
    ("serve.rejected", "Predict requests rejected by backpressure (503)."),
    ("serve.stale", "Predict responses served from a stale forecast."),
    ("serve.cache", "Forecast cache activity on the serving path."),
    ("serve.", "Serving micro-batch pipeline metric."),
    ("quality.rmse", "Rolling forecast RMSE over reconciled slots."),
    ("quality.mae", "Rolling forecast MAE over reconciled slots."),
    ("quality.drift_ratio", "Rolling RMSE over the training-time baseline RMSE."),
    ("quality.drift", "Drift excursions past the configured threshold."),
    ("quality.reconciled_slots", "Forecasts reconciled against realized flows."),
    ("quality.unreconciled_slots", "Forecasts whose target slot left the ring unreconciled."),
    ("trainer.", "Training loop metric."),
    ("pool.", "Buffer pool reuse statistic."),
    ("obs.events_dropped", "Events destroyed by JSONL stream rotation."),
    ("faults.", "Injected-fault bookkeeping (chaos tests only)."),
)


def _sanitize(name: str) -> str:
    """Metric names: dots and dashes become underscores, per convention."""
    sanitized = _NAME_SANITIZER.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _help_for(name: str) -> str:
    for prefix, text in _HELP_PREFIXES:
        if name.startswith(prefix):
            return text
    return f"repro.obs metric {name}."


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(value: object) -> str:
    """Escape one label value per the Prometheus exposition format.

    Backslash first (the escape character itself), then double-quote
    and newline — the three characters the format reserves.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict | None) -> str:
    """``{k="v",...}`` with escaped values, or ``""`` when empty."""
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(str(key))}="{escape_label_value(value)}"'
        for key, value in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def prometheus_text(registry: Registry | None = None,
                    labels: dict | None = None) -> str:
    """The registry's current state in Prometheus exposition format.

    ``labels`` (optional) is a constant label set stamped on every
    sample line — e.g. ``{"instance": ..., "city": ...}`` for a serving
    deployment; values are escaped, never trusted.
    """
    registry = registry if registry is not None else default_registry()
    constant = format_labels(labels)
    lines: list[str] = []
    for name, metric in registry.metrics().items():
        base = _sanitize(name)
        if isinstance(metric, Counter):
            series = base if base.endswith("_total") else f"{base}_total"
            lines.append(f"# HELP {series} {_escape_help(_help_for(name))}")
            lines.append(f"# TYPE {series} counter")
            lines.append(f"{series}{constant} {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {base} {_escape_help(_help_for(name))}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{constant} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {base} {_escape_help(_help_for(name))}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.bucket_counts):
                cumulative += count
                bucket = format_labels(
                    dict(labels or {}, le=_format_value(bound))
                )
                lines.append(f"{base}_bucket{bucket} {cumulative}")
            bucket = format_labels(dict(labels or {}, le="+Inf"))
            lines.append(f"{base}_bucket{bucket} {metric.count}")
            lines.append(f"{base}_sum{constant} {_format_value(metric.sum)}")
            lines.append(f"{base}_count{constant} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")
