"""Declarative service-level objectives evaluated from live metrics.

:func:`evaluate_slos` reads the current metric registry (and
optionally a :class:`~repro.obs.quality.QualityMonitor`) and returns a
structured health verdict — the payload behind serving's ``/status``
endpoint. The objectives: the p99 request latency against
:class:`SLOConfig`'s ceiling, the stale-served ratio against
``MAX_STALENESS_RATIO``, the error-budget burn (rejected requests)
against ``ERROR_BUDGET`` and, when a quality monitor is given, drift:
the monitor's own verdict.

Quantiles come from the registry's fixed-bucket histograms via
:func:`histogram_quantile`, the standard cumulative-bucket walk
(same estimator Prometheus' ``histogram_quantile`` uses): the reported
pXX is the upper bound of the first bucket whose cumulative count
reaches the quantile rank — conservative (never under-reports) and
exact when observations quantize to bucket edges.

Objectives with no data yet (no requests served, no quality window)
evaluate as healthy with ``value: None`` — an idle service is not a
burning one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.registry import Histogram, Registry, default_registry


#: Ceiling for stale-served / total requests.
MAX_STALENESS_RATIO = 0.01
#: Ceiling for rejected (503) / (served + rejected) requests.
ERROR_BUDGET = 0.001


@dataclass(frozen=True, slots=True)
class SLOConfig:
    """Service-level objectives for the serving path.

    ``p99_latency_seconds`` — ceiling for the request-latency p99.
    """

    p99_latency_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.p99_latency_seconds <= 0:
            raise ValueError(
                f"p99_latency_seconds must be > 0, got "
                f"{self.p99_latency_seconds}"
            )


def histogram_quantile(hist: Histogram, q: float) -> float | None:
    """Estimate quantile ``q`` from a fixed-bucket histogram snapshot.

    Returns the upper bound of the first bucket whose cumulative count
    reaches ``q * count`` (the observed max for the +Inf bucket), or
    ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = hist.count
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for i, bound in enumerate(hist.bounds):
        cumulative += hist.bucket_counts[i]
        if cumulative >= rank:
            return bound
    # +Inf bucket: the best finite statement is the observed maximum.
    return hist.max


def _objective(name: str, value: float | None, target: float,
               comparison: str = "<=") -> dict:
    healthy = True if value is None else value <= target
    return {
        "name": name,
        "value": value,
        "target": target,
        "comparison": comparison,
        "healthy": healthy,
    }


def evaluate_slos(config: SLOConfig | None = None,
                  registry: Registry | None = None,
                  quality=None, prefix: str = "serve") -> dict:
    """Evaluate the SLOs against live metrics.

    Returns ``{"healthy": bool, "objectives": [...]}`` where each
    objective carries its name, current value (None when no data),
    target, and per-objective verdict. ``prefix`` selects whose metrics
    are read: the ``ServiceConfig.name`` of the service being
    evaluated (``"serve"`` by default).
    """
    config = config or SLOConfig()
    reg = registry or default_registry()
    metrics = reg.metrics()

    def counter_value(name: str) -> float:
        metric = metrics.get(name)
        return metric.value if metric is not None and metric.kind == "counter" else 0

    objectives = []

    p99 = None
    latency = metrics.get(f"{prefix}.request_seconds")
    if isinstance(latency, Histogram) and latency.count > 0:
        p99 = histogram_quantile(latency, 0.99)
    objectives.append(
        _objective("p99_latency_seconds", p99, config.p99_latency_seconds)
    )

    requests = counter_value(f"{prefix}.requests")
    stale = counter_value(f"{prefix}.stale_served")
    staleness = (stale / requests) if requests else None
    objectives.append(
        _objective("staleness_ratio", staleness, MAX_STALENESS_RATIO)
    )

    rejected = counter_value(f"{prefix}.rejected")
    burn = (rejected / (requests + rejected)) if (requests + rejected) else None
    objectives.append(
        _objective("error_budget_burn", burn, ERROR_BUDGET)
    )

    if quality is not None:
        objectives.append({
            "name": "drift_ratio",
            "value": quality.drift_ratio(),
            "target": None,
            "comparison": "monitor",
            "healthy": not quality.drifting,
        })

    return {
        "healthy": all(obj["healthy"] for obj in objectives),
        "objectives": objectives,
    }
