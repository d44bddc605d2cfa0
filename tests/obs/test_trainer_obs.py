"""Trainer/serving integration with the observability layer."""

from __future__ import annotations

import numpy as np

from repro import STGNNDJD, Trainer, TrainingConfig
from repro.obs import (
    ObservabilityConfig,
    RunReport,
    default_registry,
    enable_metrics,
    read_events,
)
from repro.obs.trace import trace_spans


def fit_instrumented(dataset, tmp_path, run_id: str, epochs: int = 2,
                     trace: bool = False, **config_kwargs):
    model = STGNNDJD.from_dataset(dataset, seed=3)
    config = TrainingConfig(
        epochs=epochs,
        seed=0,
        metrics=ObservabilityConfig(out_dir=str(tmp_path), run_id=run_id,
                                    trace=trace),
        **config_kwargs,
    )
    history = Trainer(model, dataset, config).fit()
    report = RunReport.load(tmp_path / f"{run_id}.report.json")
    events = read_events(tmp_path / f"{run_id}.events.jsonl", validate=True)
    return history, report, events


class TestInstrumentedTraining:
    def test_report_matches_history_exactly(self, mini_dataset, tmp_path):
        history, report, events = fit_instrumented(mini_dataset, tmp_path, "serial")

        assert [r.train_loss for r in report.epochs] == history.train_loss
        assert [r.val_loss for r in report.epochs] == history.val_loss
        epoch_events = [e for e in events if e["kind"] == "epoch"]
        assert [e["data"]["train_loss"] for e in epoch_events] == history.train_loss
        assert [e["data"]["val_loss"] for e in epoch_events] == history.val_loss

    def test_event_stream_structure(self, mini_dataset, tmp_path):
        _, report, events = fit_instrumented(mini_dataset, tmp_path, "structure")

        kinds = [e["kind"] for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("epoch") == len(report.epochs) == 2
        assert kinds.count("span") == 2  # one per epoch
        assert events[0]["data"]["config"]["epochs"] == 2

    def test_epoch_records_carry_throughput(self, mini_dataset, tmp_path):
        _, report, _ = fit_instrumented(mini_dataset, tmp_path, "throughput")
        for record in report.epochs:
            assert record.samples_per_sec > 0
            assert record.seconds > 0
            assert record.grad_norm >= 0
            assert record.learning_rate == 0.01

    def test_registry_metrics_in_report(self, mini_dataset, tmp_path):
        _, report, _ = fit_instrumented(mini_dataset, tmp_path, "metrics")
        # train epochs + validation both pass through _sample_loss
        assert report.metrics["trainer.samples"]["value"] > 0
        assert report.metrics["span.epoch.seconds"]["count"] == 2

    def test_telemetry_off_by_default(self, mini_dataset, tmp_path):
        registry = default_registry()
        model = STGNNDJD.from_dataset(mini_dataset, seed=3)
        Trainer(model, mini_dataset, TrainingConfig(epochs=1, seed=0)).fit()
        assert not registry.enabled
        assert registry.counter("trainer.samples").value == 0
        assert list(tmp_path.iterdir()) == []

    def test_global_state_restored_after_fit(self, mini_dataset, tmp_path):
        from repro.obs import active_sink

        fit_instrumented(mini_dataset, tmp_path, "restore", epochs=1)
        assert not default_registry().enabled
        assert active_sink() is None


class TestTracedTraining:
    def test_fit_epoch_and_batch_spans_form_one_trace(self, mini_dataset, tmp_path):
        _, _, events = fit_instrumented(
            mini_dataset, tmp_path, "traced", batch_size=8, trace=True
        )
        spans = trace_spans(events)
        by_name: dict[str, list[dict]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span["data"])

        [fit] = by_name["trainer.fit"]
        epochs = by_name["trainer.epoch"]
        assert len(epochs) == 2
        assert all(e["parent_span_id"] == fit["span_id"] for e in epochs)

        batches = by_name["trainer.batch"]
        train_idx = mini_dataset.split_indices()[0]
        assert len(batches) == 2 * int(np.ceil(len(train_idx) / 8))
        for epoch in epochs:
            children = [b for b in batches
                        if b["parent_span_id"] == epoch["span_id"]]
            assert len(children) == len(batches) // 2
        assert sum(b["attrs"]["size"] for b in batches) == 2 * len(train_idx)

        # one trace end to end, every span id minted exactly once
        assert {s["data"]["trace_id"] for s in spans} == {fit["trace_id"]}
        span_ids = [s["data"]["span_id"] for s in spans]
        assert len(span_ids) == len(set(span_ids))


class TestServingTelemetry:
    def test_predict_latency_histogram(self, mini_dataset, tmp_path):
        registry = default_registry()
        model = STGNNDJD.from_dataset(mini_dataset, seed=3)
        trainer = Trainer(model, mini_dataset, TrainingConfig(epochs=1, seed=0))
        t = int(mini_dataset.split_indices()[2][0])

        trainer.predict(t)  # disabled: nothing recorded
        assert registry.histogram("serving.predict_seconds",
                                  bounds=trainer._predict_timer.bounds).count == 0

        enable_metrics(True)
        trainer.predict(t)
        trainer.predict(t)
        enable_metrics(False)

        hist = trainer._predict_timer
        assert hist.count == 2
        assert hist.sum > 0

    def test_predictions_unchanged_by_metrics(self, mini_dataset):
        t = int(mini_dataset.split_indices()[2][0])
        model = STGNNDJD.from_dataset(mini_dataset, seed=3)
        trainer = Trainer(model, mini_dataset, TrainingConfig(epochs=1, seed=0))
        demand_off, supply_off = trainer.predict(t)
        enable_metrics(True)
        demand_on, supply_on = trainer.predict(t)
        enable_metrics(False)
        np.testing.assert_array_equal(demand_off, demand_on)
        np.testing.assert_array_equal(supply_off, supply_on)
