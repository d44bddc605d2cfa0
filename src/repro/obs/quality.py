"""Continuous model-quality monitoring: reconcile forecasts with reality.

Serving issues forecasts for the open frontier slot; ingestion later
closes that slot with the realized inflow/outflow. This module captures
the forecast at ``/predict`` time and, when :class:`FlowStateStore`
rolls the slot over, reconciles prediction against realization into
rolling per-horizon and per-station RMSE/MAE windows — computed by the
**same** :mod:`repro.eval.metrics` functions the offline evaluation
uses, on the same (true, pred) pairs, so the online numbers bit-match
an offline recomputation by construction.

On top of the windows sits a drift monitor: each reconciliation
compares the rolling RMSE against a training-time baseline (embedded in
the checkpoint by ``save_checkpoint(..., quality_baseline=...)``) and
fires a ``quality.drift`` event + counter when the ratio crosses a
threshold. The trigger is edge-based with reset-on-recovery: one event
per excursion, not one per slot — the signal a continual-learning loop
can act on directly.

Wiring (see :class:`repro.serve.service.PredictionService`):

* ``record_forecast(slot, demand, supply, ...)`` at forecast time —
  multi-horizon ``(n, H)`` predictions fan out to pending entries keyed
  ``(target_slot, horizon)``; a re-forecast of the same key (model
  reload, cache invalidation) replaces the old one, last-write-wins,
  matching what the rider actually saw most recently.
* ``on_rollover(store, closed)`` registered via
  ``FlowStateStore.add_rollover_listener`` — pulls
  ``store.realized(slot)`` for each newly closed slot and folds every
  pending forecast that targeted it into the windows.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.faults import fault_point
from repro.obs.events import emit_event
from repro.obs.registry import default_registry


def _paper_metrics():
    # Lazy: repro.eval.__init__ pulls in the whole evaluation stack
    # (reporting, case studies, ...) and importing it at module load would
    # cycle back through repro.obs during package init.
    from repro.eval import metrics

    return metrics


@dataclass(frozen=True, slots=True)
class QualityBaseline:
    """Training-time error level the drift monitor compares against."""

    rmse: float
    mae: float
    samples: int = 0

    def to_dict(self) -> dict:
        return {"rmse": self.rmse, "mae": self.mae, "samples": self.samples}

    @classmethod
    def from_dict(cls, payload: dict) -> "QualityBaseline":
        return cls(
            rmse=float(payload["rmse"]),
            mae=float(payload["mae"]),
            samples=int(payload.get("samples", 0)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "QualityBaseline":
        return cls.from_dict(json.loads(payload))


#: Rolling-RMSE / baseline-RMSE ratio above which ``quality.drift`` fires.
DRIFT_THRESHOLD = 1.5


@dataclass(frozen=True, slots=True)
class QualityConfig:
    """Knobs for the quality monitor.

    ``window`` — reconciled slots retained per horizon for the rolling
    metrics. ``min_samples`` — reconciliations required before the
    drift monitor may fire (a 3-slot window ratio is noise).
    ``baseline`` — the training-time error level; ``quality.drift``
    fires when rolling RMSE / baseline RMSE exceeds ``DRIFT_THRESHOLD``.
    """

    window: int = 256
    min_samples: int = 16
    baseline: QualityBaseline | None = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )


class QualityMonitor:
    """Rolling forecast-vs-realized quality windows + drift detection.

    Thread-safe: ``record_forecast`` runs on the serving dispatcher (or
    request) thread while ``on_rollover`` runs on whichever ingestion
    thread advanced the store.
    """

    def __init__(self, config: QualityConfig | None = None,
                 registry=None) -> None:
        self.config = config or QualityConfig()
        self._lock = threading.RLock()
        # (target_slot, horizon) -> (pred_demand, pred_supply,
        #                            model_version, store_version)
        self._pending: dict[tuple[int, int], tuple] = {}
        # horizon -> deque of (true_d, pred_d, true_s, pred_s) arrays
        self._windows: dict[int, deque] = {}
        self._reconciled = 0
        self._unreconciled = 0
        self._drifting = False
        self._drift_events = 0
        reg = registry or default_registry()
        self._registry = reg
        self._reconciled_counter = reg.counter("quality.reconciled_slots")
        self._unreconciled_counter = reg.counter("quality.unreconciled_slots")
        self._drift_counter = reg.counter("quality.drift")

    # ------------------------------------------------------------------
    # Forecast capture (serving side)
    # ------------------------------------------------------------------
    def record_forecast(self, slot: int, demand: np.ndarray,
                        supply: np.ndarray, *, model_version: int = 0,
                        store_version: int = 0) -> None:
        """Capture a forecast issued while ``slot`` is the open frontier.

        ``demand``/``supply`` are ``(n,)`` single-horizon or ``(n, H)``
        multi-horizon arrays; column ``h`` predicts slot ``slot + h``.
        """
        demand = np.asarray(demand, dtype=np.float64)
        supply = np.asarray(supply, dtype=np.float64)
        if demand.shape != supply.shape:
            raise ValueError(
                f"demand/supply shape mismatch: {demand.shape} vs "
                f"{supply.shape}"
            )
        if demand.ndim == 1:
            demand = demand[:, None]
            supply = supply[:, None]
        if demand.ndim != 2:
            raise ValueError(
                f"expected (n,) or (n, horizons) forecast, got shape "
                f"{demand.shape}"
            )
        slot = int(slot)
        with self._lock:
            for h in range(demand.shape[1]):
                self._pending[(slot + h, h)] = (
                    demand[:, h].copy(),
                    supply[:, h].copy(),
                    int(model_version),
                    int(store_version),
                )

    # ------------------------------------------------------------------
    # Reconciliation (ingestion side, via store rollover listener)
    # ------------------------------------------------------------------
    def on_rollover(self, store, closed: Iterable[int]) -> None:
        """``FlowStateStore`` rollover listener: fold newly closed slots."""
        for slot in closed:
            slot = int(slot)
            with self._lock:
                keys = [key for key in self._pending if key[0] == slot]
                if not keys:
                    continue
                fault_point("quality.reconcile")
                try:
                    true_demand, true_supply = store.realized(slot)
                except (IndexError, KeyError):
                    # Slot already evicted from the ring (large gap):
                    # the forecasts are unreconcilable — count, drop.
                    for key in keys:
                        del self._pending[key]
                    self._unreconciled += len(keys)
                    self._unreconciled_counter.inc(len(keys))
                    continue
                true_demand = np.asarray(true_demand, dtype=np.float64).copy()
                true_supply = np.asarray(true_supply, dtype=np.float64).copy()
                for key in keys:
                    pred_demand, pred_supply, _, _ = self._pending.pop(key)
                    horizon = key[1]
                    window = self._windows.get(horizon)
                    if window is None:
                        window = deque(maxlen=self.config.window)
                        self._windows[horizon] = window
                    window.append(
                        (true_demand, pred_demand, true_supply, pred_supply)
                    )
                    self._reconciled += 1
                    self._reconciled_counter.inc()
                self._publish_gauges()
                self._check_drift()

    # ------------------------------------------------------------------
    # Rolling metrics (bit-match eval/metrics.py by construction)
    # ------------------------------------------------------------------
    def rolling(self, horizon: int = 0) -> dict | None:
        """Rolling RMSE/MAE over the window at ``horizon``; None if empty."""
        with self._lock:
            window = self._windows.get(horizon)
            if not window:
                return None
            pairs = list(window)
        true_d = np.stack([p[0] for p in pairs])
        pred_d = np.stack([p[1] for p in pairs])
        true_s = np.stack([p[2] for p in pairs])
        pred_s = np.stack([p[3] for p in pairs])
        metrics = _paper_metrics()
        return {
            "horizon": horizon,
            "samples": len(pairs),
            "rmse": metrics.rmse(true_d, pred_d, true_s, pred_s),
            "mae": metrics.mae(true_d, pred_d, true_s, pred_s),
        }

    def per_station(self, horizon: int = 0) -> dict | None:
        """Per-station RMSE/MAE arrays over the window at ``horizon``."""
        with self._lock:
            window = self._windows.get(horizon)
            if not window:
                return None
            pairs = list(window)
        true_d = np.stack([p[0] for p in pairs])
        pred_d = np.stack([p[1] for p in pairs])
        true_s = np.stack([p[2] for p in pairs])
        pred_s = np.stack([p[3] for p in pairs])
        metrics = _paper_metrics()
        stations = true_d.shape[1]
        rmse = np.empty(stations)
        mae = np.empty(stations)
        for station in range(stations):
            rmse[station] = metrics.rmse(
                true_d[:, station], pred_d[:, station],
                true_s[:, station], pred_s[:, station],
            )
            mae[station] = metrics.mae(
                true_d[:, station], pred_d[:, station],
                true_s[:, station], pred_s[:, station],
            )
        return {
            "horizon": horizon,
            "samples": len(pairs),
            "rmse": rmse,
            "mae": mae,
        }

    # ------------------------------------------------------------------
    # Drift
    # ------------------------------------------------------------------
    @property
    def drifting(self) -> bool:
        """Whether the drift ratio is past ``DRIFT_THRESHOLD`` (set when
        ``quality.drift`` fires, cleared when the ratio recovers)."""
        return self._drifting

    def drift_ratio(self) -> float | None:
        """rolling RMSE (horizon 0) / baseline RMSE, or None."""
        baseline = self.config.baseline
        if baseline is None or baseline.rmse <= 0:
            return None
        rolling = self.rolling(0)
        if rolling is None or rolling["samples"] < self.config.min_samples:
            return None
        return rolling["rmse"] / baseline.rmse

    def _check_drift(self) -> None:
        # Called under self._lock. Edge-triggered with reset: fire once
        # when the ratio crosses the threshold, re-arm when it recovers.
        ratio = self.drift_ratio()
        if ratio is None:
            return
        if ratio > DRIFT_THRESHOLD:
            if not self._drifting:
                self._drifting = True
                self._drift_events += 1
                self._drift_counter.inc()
                emit_event(
                    "event", "quality.drift",
                    ratio=float(ratio),
                    threshold=DRIFT_THRESHOLD,
                    rolling_rmse=float(ratio * self.config.baseline.rmse),
                    baseline_rmse=self.config.baseline.rmse,
                    ts=time.time(),
                )
        else:
            self._drifting = False

    def reset(self, baseline: QualityBaseline | None = None) -> None:
        """Flush pending forecasts and rolling windows.

        Required when the station set changes (graph evolution): window
        entries are ``(n,)`` vectors, and stacking mixed-width entries
        would crash the rolling metrics. Drift state re-arms; pass a new
        ``baseline`` to rebase the drift monitor at the same time.
        """
        with self._lock:
            self._pending.clear()
            self._windows.clear()
            self._drifting = False
            if baseline is not None:
                self.config = dataclasses.replace(self.config, baseline=baseline)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _publish_gauges(self) -> None:
        # Called under self._lock; gauges are no-ops when obs disabled.
        if not self._registry.enabled:
            return
        for horizon in self._windows:
            rolling = self.rolling(horizon)
            if rolling is None:
                continue
            self._registry.gauge(f"quality.rmse.h{horizon}").set(
                rolling["rmse"]
            )
            self._registry.gauge(f"quality.mae.h{horizon}").set(
                rolling["mae"]
            )
        ratio = self.drift_ratio()
        if ratio is not None:
            self._registry.gauge("quality.drift_ratio").set(ratio)

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def snapshot(self) -> dict:
        """JSON-able summary for ``/status`` and run reports."""
        with self._lock:
            horizons = sorted(self._windows)
            summary = {
                "pending": len(self._pending),
                "reconciled": self._reconciled,
                "unreconciled": self._unreconciled,
                "drifting": self._drifting,
                "drift_events": self._drift_events,
                "baseline": (
                    self.config.baseline.to_dict()
                    if self.config.baseline else None
                ),
            }
        ratio = self.drift_ratio()
        summary["drift_ratio"] = None if ratio is None else float(ratio)
        windows = {}
        for horizon in horizons:
            rolling = self.rolling(horizon)
            if rolling is not None:
                windows[str(horizon)] = {
                    "samples": rolling["samples"],
                    "rmse": float(rolling["rmse"]),
                    "mae": float(rolling["mae"]),
                }
        summary["windows"] = windows
        return summary
