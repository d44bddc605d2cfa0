"""Quality monitoring: reconciliation, metric bit-match, drift, SLOs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval import metrics as paper_metrics
from repro.obs import set_sink
from repro.obs.events import JsonlExporter, read_events
from repro.obs.quality import QualityBaseline, QualityConfig, QualityMonitor
from repro.obs.registry import Registry
from repro.obs.slo import SLOConfig, evaluate_slos, histogram_quantile


class FakeStore:
    """Minimal ``realized()`` provider driven by the tests."""

    def __init__(self, realized: dict[int, tuple[np.ndarray, np.ndarray]]):
        self._realized = realized

    def realized(self, slot):
        if slot not in self._realized:
            raise IndexError(f"slot {slot} evicted")
        return self._realized[slot]


def make_monitor(**config_kwargs) -> QualityMonitor:
    return QualityMonitor(QualityConfig(**config_kwargs), registry=Registry())


class TestReconciliation:
    def test_single_horizon_forecast_reconciles(self):
        monitor = make_monitor()
        pred_d, pred_s = np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.5])
        monitor.record_forecast(7, pred_d, pred_s)
        assert monitor.pending_count == 1
        true_d, true_s = np.array([1.0, 2.5, 3.0]), np.array([0.5, 1.0, 2.5])
        monitor.on_rollover(FakeStore({7: (true_d, true_s)}), range(7, 8))
        assert monitor.pending_count == 0
        rolling = monitor.rolling(0)
        assert rolling["samples"] == 1
        assert rolling["rmse"] == paper_metrics.rmse(
            true_d[None], pred_d[None], true_s[None], pred_s[None]
        )

    def test_multi_horizon_fans_out_to_per_horizon_windows(self):
        monitor = make_monitor()
        demand = np.array([[1.0, 2.0], [3.0, 4.0]])  # (n=2, H=2)
        supply = demand + 0.5
        monitor.record_forecast(10, demand, supply)
        assert monitor.pending_count == 2  # (10, h=0) and (11, h=1)
        store = FakeStore({
            10: (np.array([1.0, 3.0]), np.array([1.5, 3.5])),
            11: (np.array([2.0, 4.0]), np.array([2.5, 4.5])),
        })
        monitor.on_rollover(store, range(10, 12))
        assert monitor.rolling(0)["samples"] == 1
        assert monitor.rolling(1)["samples"] == 1
        assert monitor.rolling(2) is None

    def test_last_write_wins_for_reforecast(self):
        monitor = make_monitor()
        monitor.record_forecast(5, np.array([9.0]), np.array([9.0]))
        monitor.record_forecast(5, np.array([1.0]), np.array([1.0]))
        assert monitor.pending_count == 1
        monitor.on_rollover(
            FakeStore({5: (np.array([1.0]), np.array([1.0]))}), range(5, 6)
        )
        assert monitor.rolling(0)["rmse"] == 0.0

    def test_evicted_slot_counts_unreconciled(self):
        monitor = make_monitor()
        monitor.record_forecast(3, np.array([1.0]), np.array([1.0]))
        monitor.on_rollover(FakeStore({}), range(3, 4))
        assert monitor.pending_count == 0
        snapshot = monitor.snapshot()
        assert snapshot["unreconciled"] == 1
        assert snapshot["reconciled"] == 0

    def test_window_is_bounded(self):
        monitor = make_monitor(window=4)
        for slot in range(10):
            monitor.record_forecast(slot, np.array([1.0]), np.array([1.0]))
            monitor.on_rollover(
                FakeStore({slot: (np.array([1.0]), np.array([1.0]))}),
                range(slot, slot + 1),
            )
        assert monitor.rolling(0)["samples"] == 4


class TestBitMatch:
    def test_rolling_matches_offline_metrics_exactly(self, rng):
        """Acceptance: online RMSE/MAE equals eval.metrics to <= 1e-12
        on the same pairs (equal by construction — same function)."""
        monitor = make_monitor(window=64)
        n, slots = 5, 20
        true_d_all, pred_d_all, true_s_all, pred_s_all = [], [], [], []
        for slot in range(slots):
            pred_d = rng.uniform(0, 10, n)
            pred_s = rng.uniform(0, 10, n)
            true_d = pred_d + rng.normal(0, 1, n)
            true_s = pred_s + rng.normal(0, 1, n)
            monitor.record_forecast(slot, pred_d, pred_s)
            monitor.on_rollover(
                FakeStore({slot: (true_d, true_s)}), range(slot, slot + 1)
            )
            true_d_all.append(true_d)
            pred_d_all.append(pred_d)
            true_s_all.append(true_s)
            pred_s_all.append(pred_s)
        rolling = monitor.rolling(0)
        offline_rmse = paper_metrics.rmse(
            np.stack(true_d_all), np.stack(pred_d_all),
            np.stack(true_s_all), np.stack(pred_s_all),
        )
        offline_mae = paper_metrics.mae(
            np.stack(true_d_all), np.stack(pred_d_all),
            np.stack(true_s_all), np.stack(pred_s_all),
        )
        assert abs(rolling["rmse"] - offline_rmse) <= 1e-12
        assert abs(rolling["mae"] - offline_mae) <= 1e-12
        per_station = monitor.per_station(0)
        assert per_station["rmse"].shape == (n,)
        assert per_station["mae"].shape == (n,)


def reconcile_error(monitor: QualityMonitor, slot: int, error: float) -> None:
    """One reconciled slot whose forecast is off by ``error`` bikes."""
    truth = np.array([5.0, 5.0])
    monitor.record_forecast(slot, truth + error, truth + error)
    monitor.on_rollover(FakeStore({slot: (truth, truth)}), range(slot, slot + 1))


class TestDrift:
    def test_seeded_drift_fires_exactly_once(self, tmp_path):
        sink = JsonlExporter(tmp_path / "q.jsonl")
        prev = set_sink(sink)
        try:
            monitor = make_monitor(
                window=8, min_samples=2,
                baseline=QualityBaseline(rmse=1.0, mae=0.8, samples=100),
            )
            for slot in range(6):  # sustained 4x-baseline error
                reconcile_error(monitor, slot, error=4.0)
            snapshot = monitor.snapshot()
            assert snapshot["drifting"] is True
            assert snapshot["drift_events"] == 1  # edge, not level
        finally:
            sink.close()
            set_sink(prev)
        events = [e for e in read_events(sink.path)
                  if e["name"] == "quality.drift"]
        assert len(events) == 1
        assert events[0]["data"]["ratio"] > 1.5

    def test_recovery_rearms_the_trigger(self):
        monitor = make_monitor(
            window=2, min_samples=1,
            baseline=QualityBaseline(rmse=1.0, mae=0.8),
        )
        reconcile_error(monitor, 0, error=4.0)
        assert monitor.snapshot()["drift_events"] == 1
        for slot in (1, 2):  # window of accurate forecasts: recovered
            reconcile_error(monitor, slot, error=0.1)
        assert monitor.snapshot()["drifting"] is False
        reconcile_error(monitor, 3, error=4.0)
        reconcile_error(monitor, 4, error=4.0)
        assert monitor.snapshot()["drift_events"] == 2

    def test_no_baseline_means_no_drift_signal(self):
        monitor = make_monitor(min_samples=1)
        reconcile_error(monitor, 0, error=100.0)
        assert monitor.drift_ratio() is None
        assert monitor.snapshot()["drifting"] is False

    def test_min_samples_gates_the_ratio(self):
        monitor = make_monitor(
            min_samples=3, baseline=QualityBaseline(rmse=1.0, mae=0.8)
        )
        reconcile_error(monitor, 0, error=4.0)
        assert monitor.drift_ratio() is None
        reconcile_error(monitor, 1, error=4.0)
        reconcile_error(monitor, 2, error=4.0)
        assert monitor.drift_ratio() == pytest.approx(4.0)


class TestBaselinePersistence:
    def test_json_round_trip(self):
        baseline = QualityBaseline(rmse=1.25, mae=0.75, samples=42)
        assert QualityBaseline.from_json(baseline.to_json()) == baseline

    def test_checkpoint_embed_and_load(self, tiny_dataset, tmp_path):
        from repro.core import STGNNDJD
        from repro.core.persistence import load_quality_baseline, save_checkpoint

        model = STGNNDJD.from_dataset(tiny_dataset, seed=3)
        path = tmp_path / "model.npz"
        baseline = QualityBaseline(rmse=2.5, mae=1.5, samples=10)
        save_checkpoint(model, path, quality_baseline=baseline)
        assert load_quality_baseline(path) == baseline

        bare = tmp_path / "bare.npz"
        save_checkpoint(model, bare)
        assert load_quality_baseline(bare) is None


class TestHistogramQuantile:
    def test_empty_histogram_is_none(self):
        hist = Registry().histogram("h")
        assert histogram_quantile(hist, 0.99) is None

    def test_quantile_is_bucket_upper_bound(self):
        registry = Registry()
        registry.enabled = True
        hist = registry.timer("h")
        hist.observe(0.004)  # lands in a small bucket
        p99 = histogram_quantile(hist, 0.99)
        assert p99 is not None
        assert p99 >= 0.004  # conservative: never under-reports

    def test_bad_quantile_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile(Registry().histogram("h"), 1.5)


class TestEvaluateSlos:
    def test_idle_service_is_healthy(self):
        result = evaluate_slos(SLOConfig(), registry=Registry())
        assert result["healthy"] is True
        assert all(obj["value"] is None for obj in result["objectives"])

    def test_latency_breach_flags_unhealthy(self):
        registry = Registry()
        registry.enabled = True
        registry.counter("serve.requests").inc(10)
        for _ in range(10):
            registry.timer("serve.request_seconds").observe(2.0)
        result = evaluate_slos(
            SLOConfig(p99_latency_seconds=0.01), registry=registry
        )
        assert result["healthy"] is False
        p99 = next(o for o in result["objectives"]
                   if o["name"] == "p99_latency_seconds")
        assert p99["healthy"] is False
        assert p99["value"] > 0.01

    def test_error_budget_burn(self):
        registry = Registry()
        registry.enabled = True
        registry.counter("serve.requests").inc(90)
        registry.counter("serve.rejected").inc(10)
        result = evaluate_slos(SLOConfig(), registry=registry)
        burn = next(o for o in result["objectives"]
                    if o["name"] == "error_budget_burn")
        assert burn["value"] == pytest.approx(0.1)
        assert burn["healthy"] is False

    def test_drift_objective_tracks_monitor(self):
        registry = Registry()
        monitor = make_monitor(
            min_samples=1, baseline=QualityBaseline(rmse=1.0, mae=0.8)
        )
        result = evaluate_slos(SLOConfig(), registry=registry, quality=monitor)
        drift = next(o for o in result["objectives"]
                     if o["name"] == "drift_ratio")
        assert drift["healthy"] is True
        reconcile_error(monitor, 0, error=4.0)
        result = evaluate_slos(SLOConfig(), registry=registry, quality=monitor)
        drift = next(o for o in result["objectives"]
                     if o["name"] == "drift_ratio")
        assert drift["healthy"] is False
        assert monitor.drifting is True
        assert drift["value"] == pytest.approx(4.0)

    def test_prefix_selects_the_named_service(self):
        # Two services sharing one registry (examples/continual_stream.py
        # runs a live and a frozen one) are judged on their own traffic.
        registry = Registry()
        registry.enabled = True
        for prefix, latency in (("serve.live", 2.0), ("serve.frozen", 0.001)):
            registry.counter(f"{prefix}.requests").inc(10)
            for _ in range(10):
                registry.timer(f"{prefix}.request_seconds").observe(latency)
        config = SLOConfig(p99_latency_seconds=0.25)
        live = evaluate_slos(config, registry=registry, prefix="serve.live")
        frozen = evaluate_slos(config, registry=registry, prefix="serve.frozen")
        assert live["healthy"] is False
        assert frozen["healthy"] is True

    def test_default_prefix_is_the_single_service(self):
        registry = Registry()
        registry.enabled = True
        registry.counter("serve.requests").inc(5)
        for _ in range(5):
            registry.timer("serve.request_seconds").observe(0.001)
        result = evaluate_slos(registry=registry)
        p99 = next(o for o in result["objectives"]
                   if o["name"] == "p99_latency_seconds")
        assert p99["value"] is not None
