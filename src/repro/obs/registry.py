"""Metrics registry: counters, gauges, histograms and timers.

The registry is the accumulation side of the observability layer
(:mod:`repro.obs`): instrumented code asks a :class:`Registry` for a
named metric once (usually at construction time) and then records into
it on the hot path. Three properties shape the design:

* **near-zero overhead when disabled** — every recording method
  (``inc``, ``set``, ``observe``) is gated on a single attribute read of
  the owning registry's ``enabled`` flag, so uninstrumented runs pay one
  predictable branch per call site and allocate nothing;
* **plain per-process state** — metrics are ordinary Python objects,
  no locks or shared memory;
* **fixed histogram layouts** — bucket bounds are immutable per metric,
  which keeps the Prometheus exposition (:mod:`repro.obs.prometheus`)
  a direct dump.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import time
from typing import Iterator

#: Default histogram layout for durations in seconds: a 1-2.5-5 ladder
#: from 100 microseconds to 10 seconds, covering everything from a single
#: fused op to a full training epoch.
TIME_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default layout for unitless values: powers of ten around 1.
VALUE_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0, 10000.0)


class Counter:
    """Monotonically increasing sum. ``inc`` is a no-op when disabled."""

    __slots__ = ("name", "value", "_registry")
    kind = "counter"

    def __init__(self, name: str, registry: "Registry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            if amount < 0:
                raise ValueError(f"counter {self.name!r} cannot decrease")
            self.value += amount

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Last-observed value (pool occupancy, LR)."""

    __slots__ = ("name", "value", "_registry")
    kind = "gauge"

    def __init__(self, name: str, registry: "Registry") -> None:
        self.name = name
        self.value = 0.0
        self._registry = registry

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bucket edges; one implicit overflow
    bucket (``+Inf``) catches everything beyond the last edge. The
    layout is frozen at construction, so the exposition's buckets never
    change under a scraper.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max",
                 "_registry")
    kind = "histogram"

    def __init__(self, name: str, registry: "Registry",
                 bounds: tuple[float, ...] = VALUE_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._registry = registry

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @contextlib.contextmanager
    def time(self) -> Iterator[None]:
        """Observe the monotonic duration of the ``with`` block."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            # inf/-inf are not valid JSON: empty histograms export None.
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.6g})")


class Registry:
    """A namespace of metrics with get-or-create accessors.

    Metrics are keyed by name; asking twice returns the same object, and
    asking for an existing name with a different metric kind raises.
    New registries start ``enabled=False`` — instrumentation can be laid
    down everywhere and costs one branch per call site until a run
    recorder (or a test) switches it on.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- accessors ------------------------------------------------------
    def _get_or_create(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        metric = self._get_or_create(name, lambda: Counter(name, self))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._get_or_create(name, lambda: Gauge(name, self))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = VALUE_BUCKETS) -> Histogram:
        metric = self._get_or_create(name, lambda: Histogram(name, self, bounds))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a histogram")
        if metric.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already exists with bounds {metric.bounds}"
            )
        return metric

    def timer(self, name: str) -> Histogram:
        """A histogram of seconds with the duration bucket layout."""
        return self.histogram(name, bounds=TIME_BUCKETS)

    def metrics(self) -> dict[str, Counter | Gauge | Histogram]:
        """Name → metric mapping (live objects, insertion-ordered)."""
        return dict(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- bulk access ----------------------------------------------------
    def snapshot(self) -> dict[str, dict]:
        """Plain-data view of every metric (JSON-serialisable)."""
        return {name: metric.snapshot() for name, metric in self._metrics.items()}

    def reset(self) -> None:
        """Zero every metric in place (objects stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Registry({len(self._metrics)} metrics, {state})"


# ----------------------------------------------------------------------
# Process-global default registry
# ----------------------------------------------------------------------
_DEFAULT = Registry(enabled=False)


def default_registry() -> Registry:
    """The process-wide registry instrumented library code records into."""
    return _DEFAULT


def metrics_enabled() -> bool:
    return _DEFAULT.enabled


def enable_metrics(enabled: bool = True) -> bool:
    """Switch the default registry on/off; returns the previous state."""
    previous = _DEFAULT.enabled
    _DEFAULT.enabled = enabled
    return previous


@contextlib.contextmanager
def metrics_scope(enabled: bool = True) -> Iterator[Registry]:
    """Scope the default registry's enabled flag to a ``with`` block."""
    previous = enable_metrics(enabled)
    try:
        yield _DEFAULT
    finally:
        enable_metrics(previous)
