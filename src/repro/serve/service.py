"""The prediction service: micro-batching, backpressure, hot-reload.

:class:`PredictionService` turns a trained :class:`~repro.core.STGNNDJD`
plus a :class:`~repro.serve.state.FlowStateStore` into an online
forecaster. Three serving concerns live here, all dependency-free:

* **Micro-batching** — STGNN-DJD predicts *every* station in one
  forward pass, so N concurrent requests for the same slot need one
  model call, not N. Requests enter a bounded queue; a single
  dispatcher thread takes the first of them plus whatever is already
  queued behind it (up to ``max_batch``, never waiting for more), runs
  the forward once, and fans the per-station rows back out. Requests
  that arrive while a forward runs therefore share the next one, and a
  lone request is answered at once. A per-slot forecast cache keyed
  on ``(frontier, store.version, model_version)`` shares one forward
  across dispatches too: the cache invalidates itself the moment a
  rollover or late event changes the input windows, or a reload changes
  the weights.
* **Backpressure** — the admission queue is bounded. When it is full
  the service *rejects* with :class:`ServiceOverloaded` (carrying a
  ``retry_after`` hint) instead of queueing unboundedly; the HTTP layer
  maps this to ``503 Retry-After``. The hint is drawn uniformly from
  ``[RETRY_AFTER_SECONDS, RETRY_AFTER_SECONDS * (1 + RETRY_JITTER)]``,
  decorrelating synchronized clients that would otherwise retry in
  lockstep.
* **Checkpoint hot-reload** — :meth:`PredictionService.reload` loads a
  checkpoint via :func:`repro.core.persistence.load_stgnn` (schema
  version checked, see ``persistence.py``), validates it against the
  store's dimensions, and swaps the model reference atomically.
  In-flight batches keep the reference they grabbed, so they finish on
  the old weights; the next dispatch picks up the new ones. A failed
  reload (missing, corrupt/mid-write, schema-mismatched or
  wrong-dimension checkpoint) raises — or is counted and logged by the
  background watcher — and the old model keeps serving.
* **Degraded serving** — failures answer requests anyway, honestly
  flagged. While the checkpoint on disk cannot be loaded (a torn or
  corrupt write), responses keep coming from the old weights with
  ``stale=True`` until a good checkpoint lands. If the model forward
  itself fails (e.g. an injected dispatcher fault), the service falls
  back to the last finalized forecast, again with ``stale=True``, and
  counts it in ``serve.stale_served``. The chaos suite
  (``tests/faults/test_serve_chaos.py``) drives both paths.

The request path never touches global RNG state: the model runs in eval
mode (dropout is identity) on the forward-only fast path.
``tests/serve/test_rng_isolation.py`` pins this down. The forward runs
in the dtype of the model's parameters: ops follow their inputs, so
``model.to`` picks the precision, and every op allocates its own output.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import random
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.model import STGNNDJD
from repro.core.persistence import load_quality_baseline, load_stgnn
from repro.data.dataset import BikeShareDataset
from repro.data.normalize import MinMaxNormalizer
from repro.faults import fault_point
from repro.obs.profiler import profile
from repro.obs.quality import QualityConfig, QualityMonitor
from repro.obs.registry import default_registry
from repro.obs.slo import SLOConfig, evaluate_slos
from repro.obs.trace import (
    current_context,
    record_span,
    trace_config,
    trace_span,
    trace_status,
    tracing_enabled,
)
from repro.serve.state import FlowStateStore
from repro.tensor import inference_mode
from repro.utils import get_logger

logger = get_logger("serve")


#: Lower bound of the Retry-After hint on overload, in seconds.
RETRY_AFTER_SECONDS = 0.05
#: The hint adds up to this fraction of ``RETRY_AFTER_SECONDS``, at random.
RETRY_JITTER = 0.5


class ServiceError(RuntimeError):
    """Base class for serving failures."""


class ServiceOverloaded(ServiceError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"admission queue full, retry after {retry_after:.3f}s"
        )
        self.retry_after = retry_after


class ServiceStopped(ServiceError):
    """The service stopped before the request completed."""


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Serving knobs.

    ``max_batch`` caps a micro-batch: the dispatcher coalesces at most
    that many already-queued requests into one forward (``1`` runs one
    forward per request). ``queue_depth`` bounds admission;
    ``request_timeout_seconds`` bounds how long a caller blocks on its
    result, and how long an HTTP handler waits on a silent client.
    ``checkpoint_path`` + ``reload_poll_seconds`` arm the background
    checkpoint watcher.
    ``quality`` arms continuous forecast-quality monitoring (forecasts
    reconciled against realized flows on slot rollover); ``slo``
    declares the objectives the ``/status`` endpoint evaluates.

    ``name`` prefixes the service's metric names and fault sites
    (``{name}.requests``, ``{name}.dispatch``, ...). The default is
    ``"serve"``; services sharing one registry (a live model and a
    frozen reference in the same process) take distinct names so their
    traffic, faults and SLOs stay separate.
    """

    max_batch: int = 64
    queue_depth: int = 256
    request_timeout_seconds: float = 30.0
    checkpoint_path: str | None = None
    reload_poll_seconds: float | None = None
    quality: QualityConfig | None = None
    slo: SLOConfig | None = None
    name: str = "serve"

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if not self.request_timeout_seconds > 0:
            # It is also the handler's socket timeout, where 0 would mean
            # non-blocking reads and a negative value is refused.
            raise ValueError(
                "request_timeout_seconds must be positive, "
                f"got {self.request_timeout_seconds}"
            )
        if not self.name:
            raise ValueError("name must be a non-empty metric/fault prefix")
        if self.reload_poll_seconds is not None and self.reload_poll_seconds <= 0:
            raise ValueError("reload_poll_seconds must be positive when set")
        if self.reload_poll_seconds is not None and self.checkpoint_path is None:
            raise ValueError("reload_poll_seconds requires checkpoint_path")


@dataclass(frozen=True, slots=True)
class Forecast:
    """One answered prediction request, in denormalised bikes."""

    slot: int
    stations: np.ndarray  # (s,) station ids the rows refer to
    demand: np.ndarray  # (s,) or (s, horizon)
    supply: np.ndarray  # (s,) or (s, horizon)
    model_version: int
    cached: bool  # served from the per-slot forecast cache
    # Degraded-mode marker: True when this answer comes from weights
    # known to lag the checkpoint on disk (a reload failed) or is the
    # last finalized forecast re-served after a forward failure.
    stale: bool = False


class _Request:
    """A queued prediction request and its completion rendezvous.

    Carries the requester's trace context across the queue (contextvars
    do not follow objects between threads) plus the enqueue/dequeue
    stamps from which the queue-wait span is reconstructed after the
    rendezvous completes.
    """

    __slots__ = ("stations", "done", "forecast", "error",
                 "trace_ctx", "enqueued_ts", "enqueued_perf", "dequeued_perf")

    def __init__(self, stations: np.ndarray | None) -> None:
        self.stations = stations
        self.done = threading.Event()
        self.forecast: Forecast | None = None
        self.error: BaseException | None = None
        self.trace_ctx = None
        self.enqueued_ts = 0.0
        self.enqueued_perf = 0.0
        self.dequeued_perf = 0.0


class PredictionService:
    """Online forecaster over a flow-state store and a loaded model."""

    def __init__(
        self,
        model: STGNNDJD,
        store: FlowStateStore,
        demand_normalizer: MinMaxNormalizer,
        supply_normalizer: MinMaxNormalizer,
        config: ServiceConfig | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store
        self._check_compatible(model)
        model.eval()
        self._model = model
        self._model_version = 0
        self.demand_normalizer = demand_normalizer
        self.supply_normalizer = supply_normalizer
        self._queue: queue.Queue[_Request | None] = queue.Queue(
            maxsize=self.config.queue_depth
        )
        self._cache: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._cache_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._dispatcher: threading.Thread | None = None
        self._watcher: threading.Thread | None = None
        self._stop = threading.Event()
        self._checkpoint_mtime: float | None = None
        # Degraded-mode state: the last successfully computed all-station
        # forecast (re-served stale when a forward fails) and whether the
        # newest reload attempt failed (weights lag the disk checkpoint).
        self._last_good: Forecast | None = None
        self._reload_failed = False
        #: Signalled on every successful / failed reload attempt — the
        #: condition tests (and operators) wait on instead of polling.
        self.reload_ok_event = threading.Event()
        self.reload_error_event = threading.Event()
        obs = default_registry()
        self._obs = obs
        name = self.config.name
        self.name = name
        # Fault sites carry the same prefix as metrics: the default
        # "serve.dispatch"/"serve.forecast"/"serve.reload" sites, or
        # {name}.* for a service given another name.
        self._dispatch_site = f"{name}.dispatch"
        self._forecast_site = f"{name}.forecast"
        self._reload_site = f"{name}.reload"
        # Deterministic per-service jitter stream for Retry-After hints:
        # seeded from the service name so differently named services
        # decorrelate without ever touching global RNG state (request-path
        # purity is pinned by tests/serve/test_rng_isolation.py).
        self._retry_rng = random.Random(zlib.crc32(name.encode()))
        self._requests_counter = obs.counter(f"{name}.requests")
        self._rejected_counter = obs.counter(f"{name}.rejected")
        self._batch_size_hist = obs.histogram(f"{name}.batch_size")
        self._queue_depth_gauge = obs.gauge(f"{name}.queue_depth")
        self._cache_hits = obs.counter(f"{name}.cache_hits")
        self._cache_misses = obs.counter(f"{name}.cache_misses")
        self._reload_counter = obs.counter(f"{name}.reloads")
        self._reload_errors = obs.counter(f"{name}.reload_errors")
        self._stale_counter = obs.counter(f"{name}.stale_served")
        self._request_timer = obs.timer(f"{name}.request_seconds")
        # Continuous quality monitoring: capture forecasts as they are
        # issued and reconcile them when the store closes their slot.
        self.quality: QualityMonitor | None = None
        if self.config.quality is not None:
            self.quality = QualityMonitor(self.config.quality, registry=obs)
            store.add_rollover_listener(self.quality.on_rollover)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def for_dataset(
        cls,
        model: STGNNDJD,
        dataset: BikeShareDataset,
        config: ServiceConfig | None = None,
        frontier: int | None = None,
    ) -> "PredictionService":
        """Serve ``model`` continuing where a dataset's history ends.

        The store is warm-started from the dataset's flow tensors and
        the normalizers are the dataset's train-split scalers — the same
        pair the model was trained against.
        """
        store = FlowStateStore.from_dataset(dataset, frontier=frontier)
        return cls(
            model,
            store,
            dataset.demand_normalizer,
            dataset.supply_normalizer,
            config=config,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        store: FlowStateStore,
        demand_normalizer: MinMaxNormalizer,
        supply_normalizer: MinMaxNormalizer,
        config: ServiceConfig | None = None,
    ) -> "PredictionService":
        """Boot a service from a checkpoint file (schema-checked).

        When quality monitoring is armed without an explicit baseline,
        the training-time baseline embedded in the checkpoint (if any)
        is adopted, so drift detection works out of the box.
        """
        if config is None:
            config = ServiceConfig(checkpoint_path=str(path))
        elif config.checkpoint_path is None:
            config = dataclasses.replace(config, checkpoint_path=str(path))
        if config.quality is not None and config.quality.baseline is None:
            baseline = load_quality_baseline(path)
            if baseline is not None:
                config = dataclasses.replace(
                    config,
                    quality=dataclasses.replace(
                        config.quality, baseline=baseline
                    ),
                )
        service = cls(
            load_stgnn(path), store, demand_normalizer, supply_normalizer, config
        )
        service._checkpoint_mtime = _mtime(config.checkpoint_path)
        return service

    def _check_compatible(self, model: STGNNDJD) -> None:
        expected = (
            self.store.config.num_stations,
            self.store.config.short_window,
            self.store.config.long_days,
        )
        got = (
            model.config.num_stations,
            model.config.short_window,
            model.config.long_days,
        )
        if expected != got:
            raise ServiceError(
                f"model (stations, k, d)={got} does not match the "
                f"flow store's {expected}"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._dispatcher is not None and self._dispatcher.is_alive()

    @property
    def model_version(self) -> int:
        return self._model_version

    @property
    def reload_failed(self) -> bool:
        """Whether the newest reload attempt failed (weights lag the disk)."""
        return self._reload_failed

    def _next_retry_after(self) -> float:
        """The jittered Retry-After hint for one overload rejection."""
        return RETRY_AFTER_SECONDS * (1.0 + RETRY_JITTER * self._retry_rng.random())

    def status(self) -> dict:
        """Operational summary: SLO health, tracing, quality windows.

        The JSON body behind ``GET /status``. SLOs are evaluated from
        the live metric registry against ``config.slo`` (defaults when
        unset); quality is ``None`` until monitoring is armed.
        """
        slo = evaluate_slos(
            self.config.slo, registry=self._obs, quality=self.quality,
            prefix=self.name,
        )
        return {
            "status": "ok" if slo["healthy"] else "degraded",
            "frontier": self.store.frontier,
            "warmed_up": self.store.warmed_up,
            "model_version": self._model_version,
            "dispatcher_running": self.running,
            "reload_failed": self._reload_failed,
            "slo": slo,
            "trace": trace_status(),
            "quality": None if self.quality is None else self.quality.snapshot(),
        }

    def start(self) -> "PredictionService":
        """Spawn the dispatcher (and the checkpoint watcher, if armed)."""
        if self.running:
            return self
        self._stop.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name=f"{self.name}-dispatcher", daemon=True,
        )
        self._dispatcher.start()
        if self.config.reload_poll_seconds is not None:
            if self._checkpoint_mtime is None:
                self._checkpoint_mtime = _mtime(self.config.checkpoint_path)
            self._watcher = threading.Thread(
                target=self._watch_loop, name="serve-reload-watcher", daemon=True
            )
            self._watcher.start()
        return self

    def stop(self) -> None:
        """Stop the dispatcher; queued requests fail with ServiceStopped."""
        if not self.running:
            return
        self._stop.set()
        try:
            self._queue.put_nowait(None)  # wake the dispatcher
        except queue.Full:
            pass  # dispatcher polls _stop every 100ms; no need to block
        self._dispatcher.join(timeout=5.0)
        self._dispatcher = None
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None
        # Fail anything still queued rather than leaving callers hanging.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is not None:
                request.error = ServiceStopped("service stopped")
                request.done.set()

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def predict(
        self,
        stations: "list[int] | np.ndarray | None" = None,
        timeout: float | None = None,
    ) -> Forecast:
        """Forecast demand/supply for the current frontier slot.

        ``stations=None`` returns every station. With the dispatcher
        running the request is queued and micro-batched; otherwise it is
        served synchronously on the calling thread — a single-threaded
        convenience for scripts and tests that never ``start()`` the
        service (concurrent callers must go through the dispatcher).
        """
        start = time.perf_counter()
        stations_idx = None if stations is None else np.asarray(stations, dtype=int)
        if stations_idx is not None and stations_idx.size:
            n = self.store.config.num_stations
            if stations_idx.min() < 0 or stations_idx.max() >= n:
                raise ValueError(f"station ids must be in 0..{n - 1}")
        self._requests_counter.inc()
        if not self.running:
            forecast = self._answer(self._model, self._model_version, stations_idx)
            self._request_timer.observe(time.perf_counter() - start)
            return forecast
        request = _Request(stations_idx)
        if tracing_enabled():
            ctx = current_context()
            if ctx is not None and ctx.sampled:
                # Stamp the enqueue so the queue-wait interval can be
                # recorded as a span once the dispatcher has answered.
                # Unsampled (or context-free) requests skip the clock
                # reads entirely — they could never record the span.
                request.trace_ctx = ctx
                request.enqueued_ts = time.time()
                request.enqueued_perf = time.perf_counter()
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._rejected_counter.inc()
            raise ServiceOverloaded(self._next_retry_after()) from None
        if self._obs.enabled:
            self._queue_depth_gauge.set(self._queue.qsize())
        timeout = self.config.request_timeout_seconds if timeout is None else timeout
        if not request.done.wait(timeout):
            raise ServiceError(f"request timed out after {timeout}s")
        if request.trace_ctx is not None and request.dequeued_perf:
            record_span(
                "serve.queue", request.trace_ctx, request.enqueued_ts,
                request.dequeued_perf - request.enqueued_perf,
            )
        if request.error is not None:
            raise request.error
        self._request_timer.observe(time.perf_counter() - start)
        return request.forecast

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if first is None:
                continue
            assemble_ts = time.time()
            assemble_perf = time.perf_counter()
            first.dequeued_perf = assemble_perf
            batch = [first]
            # Take only what is already queued: requests that arrived
            # behind the previous forward share this one, and a lone
            # request never waits for company that may not come.
            while len(batch) < self.config.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is None:
                    break
                nxt.dequeued_perf = time.perf_counter()
                batch.append(nxt)
            self._batch_size_hist.observe(len(batch))
            if self._obs.enabled:
                self._queue_depth_gauge.set(self._queue.qsize())
            # One reference for the whole batch: a concurrent reload
            # swaps self._model but cannot affect these requests.
            model, version = self._model, self._model_version
            # The batch span is a root of its own trace *linking* every
            # request span it serves — one forward pass attributed to N
            # requests without picking one of them as the parent.
            links = tuple(r.trace_ctx for r in batch if r.trace_ctx is not None)
            with trace_span("serve.batch", parent=None, links=links,
                            batch_size=len(batch)) as batch_span:
                record_span(
                    "serve.assemble", batch_span.ctx, assemble_ts,
                    time.perf_counter() - assemble_perf,
                    batch_size=len(batch),
                )
                try:
                    fault_point(self._dispatch_site)
                    full = self._full_forecast(model, version)
                except BaseException as error:  # noqa: BLE001 - forwarded to callers
                    batch_span.set(outcome="error", error=type(error).__name__)
                    for request in batch:
                        request.error = error
                        request.done.set()
                    continue
                batch_span.set(outcome="ok", slot=full.slot,
                               cached=full.cached, stale=full.stale)
                for request in batch:
                    request.forecast = self._subset(full, request.stations)
                    request.done.set()

    def _answer(
        self, model: STGNNDJD, version: int, stations: np.ndarray | None
    ) -> Forecast:
        return self._subset(self._full_forecast(model, version), stations)

    def _full_forecast(self, model: STGNNDJD, version: int) -> Forecast:
        """All-station forecast for the frontier slot, cache-aware.

        Degrades instead of failing: if the forward (or an injected
        ``serve.forecast`` fault) raises and a previous forecast exists,
        that last finalized forecast is re-served with ``stale=True``
        and counted in ``serve.stale_served``. Only a failure with no
        fallback propagates to the caller.
        """
        store = self.store
        # A hit needs no lock: every advance bumps the store version, so
        # a (frontier, version) pair torn by a concurrent ingest matches
        # no cached key. A miss keys on what sample_with_version() read.
        key = (store.frontier, store.version, version)
        with self._cache_lock:
            hit = self._cache.get(key)
        if hit is not None:
            self._cache_hits.inc()
            demand, supply = hit
            return Forecast(
                slot=key[0],
                stations=np.arange(store.config.num_stations),
                demand=demand,
                supply=supply,
                model_version=version,
                cached=True,
                stale=self._reload_failed,
            )
        self._cache_misses.inc()
        if model.training:
            # Other code sharing the model object (e.g. a Trainer whose
            # predict() flips back to train mode) must not re-arm
            # dropout on the serving path.
            model.eval()
        try:
            fault_point(self._forecast_site)
            sample, store_version = store.sample_with_version()
            key = (sample.t, store_version, version)
            with trace_span("serve.forward", slot=sample.t) as forward_span:
                config = trace_config()
                profiled = (
                    forward_span.ctx is not None
                    and forward_span.recorded
                    and config is not None
                    and config.profile_ops
                )
                with inference_mode():
                    if profiled:
                        # Per-op kernel timing, only on sampled traces:
                        # profile() swap-installs op wrappers, so the
                        # cost is paid per sampled forward, not per call.
                        with profile() as prof:
                            demand_pred, supply_pred = model(sample)
                        top = sorted(prof.stats.items(),
                                     key=lambda kv: kv[1].seconds,
                                     reverse=True)[:6]
                        forward_span.set(ops={
                            name: {"calls": s.calls,
                                   "seconds": round(s.seconds, 6)}
                            for name, s in top
                        })
                    else:
                        demand_pred, supply_pred = model(sample)
                    demand = self.demand_normalizer.inverse_transform(demand_pred.data)
                    supply = self.supply_normalizer.inverse_transform(supply_pred.data)
        except Exception as error:
            fallback = self._last_good
            if fallback is None:
                raise
            self._stale_counter.inc()
            logger.error(
                "forecast failed (%s); serving last finalized forecast "
                "for slot %d as stale", error, fallback.slot,
            )
            return dataclasses.replace(fallback, stale=True)
        demand.setflags(write=False)
        supply.setflags(write=False)
        with self._cache_lock:
            self._cache[key] = (demand, supply)
            while len(self._cache) > 8:  # keep only the freshest slots
                self._cache.pop(next(iter(self._cache)))
        forecast = Forecast(
            slot=sample.t,
            stations=np.arange(store.config.num_stations),
            demand=demand,
            supply=supply,
            model_version=version,
            cached=False,
            stale=self._reload_failed,
        )
        self._last_good = forecast
        if self.quality is not None:
            # Capture the forecast for reconciliation when the store
            # closes this slot. Cache hits re-serve this same array
            # pair, so one capture per (frontier, store, model) identity
            # covers every rider who saw it.
            self.quality.record_forecast(
                forecast.slot, demand, supply,
                model_version=version, store_version=key[1],
            )
        return forecast

    @staticmethod
    def _subset(full: Forecast, stations: np.ndarray | None) -> Forecast:
        if stations is None:
            return full
        return Forecast(
            slot=full.slot,
            stations=stations,
            demand=full.demand[stations],
            supply=full.supply[stations],
            model_version=full.model_version,
            cached=full.cached,
            stale=full.stale,
        )

    def on_graph_evolved(self) -> None:
        """Drop state tied to the previous station set.

        Called after the underlying flow store grew or shrank its
        station axis (continual-learning graph evolution): the forecast
        cache, the stale-serving fallback and the quality monitor all
        hold ``(n,)``-shaped arrays for the *old* ``n`` and must not
        leak into post-evolution responses. The model itself is swapped
        separately via :meth:`reload` (the evolved checkpoint).
        """
        with self._cache_lock:
            self._cache.clear()
        self._last_good = None
        if self.quality is not None:
            self.quality.reset()

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self, path: str | Path | None = None) -> int:
        """Atomically swap in a checkpoint; returns the new model version.

        Fails loudly — a checkpoint that does not load, carries the
        wrong schema version, or does not match the store's dimensions
        raises and leaves the current model serving.
        """
        path = path or self.config.checkpoint_path
        if path is None:
            raise ServiceError("no checkpoint path configured for reload")
        with self._reload_lock:
            try:
                fault_point(self._reload_site)
                model = load_stgnn(path)
                self._check_compatible(model)
            except BaseException:
                # The disk checkpoint is newer than what we serve but
                # unusable (torn write, corruption, schema drift): keep
                # the old weights and mark responses stale until a good
                # checkpoint arrives.
                self._reload_errors.inc()
                self._reload_failed = True
                self.reload_error_event.set()
                raise
            model.eval()
            self._model = model
            self._model_version += 1
            self._checkpoint_mtime = _mtime(path)
            self._reload_failed = False
            self._reload_counter.inc()
            self.reload_ok_event.set()
            logger.info(
                "hot-reloaded checkpoint %s (model version %d)",
                path, self._model_version,
            )
            return self._model_version

    def _watch_loop(self) -> None:
        path = self.config.checkpoint_path
        while not self._stop.wait(self.config.reload_poll_seconds):
            mtime = _mtime(path)
            if mtime is None or mtime == self._checkpoint_mtime:
                continue
            try:
                self.reload(path)
            except BaseException as error:  # noqa: BLE001 - keep serving
                # reload() already counted the failure; remember the
                # mtime so a broken file is not retried every poll.
                self._checkpoint_mtime = mtime
                logger.error("checkpoint reload failed: %s", error)


def _mtime(path: str | Path | None) -> float | None:
    if path is None:
        return None
    try:
        return os.stat(path).st_mtime
    except OSError:
        return None
