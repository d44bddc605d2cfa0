"""Integration: the full pipeline from raw trips to evaluated predictions."""

import numpy as np
import pytest

from repro import (
    STGNNDJD,
    SyntheticCityConfig,
    Trainer,
    TrainingConfig,
    evaluate_model,
    generate_city,
)
from repro.baselines import HistoricalAverage
from repro.data import (
    BikeShareDataset,
    FlowDataConfig,
    FlowSlots,
    build_city,
    build_flow_slots,
    clean_trips,
    generate_trips,
    read_trips_csv,
    write_trips_csv,
)
from repro.eval import model_dependency_heatmap, rush_window_times


class TestFullPipeline:
    def test_trips_to_dataset_through_csv(self, tmp_path):
        """Generate → CSV → reload → clean → flows → dataset: the path a
        real-data user would take."""
        config = SyntheticCityConfig.tiny(days=6, num_stations=6)
        city = build_city(config, seed=0)
        trips = generate_trips(city, seed=0)
        path = tmp_path / "trips.csv"
        write_trips_csv(trips, path)
        reloaded = read_trips_csv(path)
        assert len(reloaded) == len(trips)

        clean, report = clean_trips(reloaded, config.num_stations)
        assert report.kept == len(clean)
        inflow, outflow = build_flow_slots(
            clean, config.num_stations,
            config.days * config.slots_per_day, config.slot_seconds,
        )
        dataset = BikeShareDataset(
            city.registry, inflow, outflow,
            FlowDataConfig(slot_seconds=config.slot_seconds,
                           short_window=config.short_window,
                           long_days=config.long_days),
        )
        assert dataset.demand.sum() == len(clean)

    def test_train_eval_beats_untrained(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=0, dropout=0.0)
        trainer = Trainer(
            model, mini_dataset,
            TrainingConfig(epochs=5, max_batches_per_epoch=4, seed=0, patience=10),
        )
        trainer.fit()
        trained = evaluate_model(trainer, mini_dataset)

        fresh = STGNNDJD.from_dataset(mini_dataset, seed=11, dropout=0.0)
        fresh_trainer = Trainer(fresh, mini_dataset)
        untrained = evaluate_model(fresh_trainer, mini_dataset)
        assert trained.rmse < untrained.rmse

    def test_model_beats_historical_average_when_trained_enough(self, mini_dataset):
        """Sanity on the headline claim at miniature scale: the trained
        model should at least approach HA's error (full benchmark does
        the real comparison with more training)."""
        model = STGNNDJD.from_dataset(mini_dataset, seed=0, dropout=0.0)
        trainer = Trainer(
            model, mini_dataset,
            TrainingConfig(epochs=8, max_batches_per_epoch=6, seed=0, patience=10),
        )
        trainer.fit()
        model_result = evaluate_model(trainer, mini_dataset)
        ha_result = evaluate_model(HistoricalAverage(mini_dataset).fit(), mini_dataset)
        assert model_result.rmse < ha_result.rmse * 2.0

    def test_case_study_pipeline(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=0)
        times = rush_window_times(mini_dataset, mini_dataset.num_days - 1, 7.0, 10.0)
        heatmap = model_dependency_heatmap(model, mini_dataset, 0, times, neighbors=4)
        assert np.isfinite(heatmap.values).all()
        assert (heatmap.values >= 0).all()


class TestMultiStepExtension:
    def test_forward_shapes(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=0, horizon=3)
        demand, supply = model(mini_dataset.sample(mini_dataset.min_history))
        n = mini_dataset.num_stations
        assert demand.shape == (n, 3)
        assert supply.shape == (n, 3)

    def test_training_runs_and_improves(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=0, horizon=2, dropout=0.0)
        trainer = Trainer(
            model, mini_dataset,
            TrainingConfig(epochs=3, max_batches_per_epoch=3, seed=0, patience=10),
        )
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_predict_has_horizon_columns(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=0, horizon=2)
        trainer = Trainer(model, mini_dataset)
        _, _, test_idx = mini_dataset.split_indices()
        demand, supply = trainer.predict(int(test_idx[0]))
        assert demand.shape == (mini_dataset.num_stations, 2)

    def test_invalid_horizon(self, mini_dataset):
        with pytest.raises(ValueError):
            STGNNDJD.from_dataset(mini_dataset, seed=0, horizon=0)


class TestRobustness:
    def test_station_with_zero_traffic(self):
        """A dead station must not break training or evaluation."""
        ds = generate_city(SyntheticCityConfig.tiny(days=8, num_stations=6), seed=1)
        inflow, outflow = ds.inflow_slots.dense(), ds.outflow_slots.dense()
        for flows in (inflow, outflow):
            flows[:, 0, :] = 0.0
            flows[:, :, 0] = 0.0
        rebuilt = BikeShareDataset(
            ds.registry, FlowSlots.from_dense(inflow), FlowSlots.from_dense(outflow),
            ds.config,
        )
        assert rebuilt.demand[:, 0].sum() == rebuilt.supply[:, 0].sum() == 0.0
        model = STGNNDJD.from_dataset(rebuilt, seed=0)
        trainer = Trainer(
            model, rebuilt, TrainingConfig(epochs=1, max_batches_per_epoch=2)
        )
        history = trainer.fit()
        assert np.isfinite(history.train_loss[0])
        result = evaluate_model(trainer, rebuilt)
        assert np.isfinite(result.rmse)

    def test_empty_slots_everywhere(self):
        """All-zero flow (a snowstorm day) must not produce NaNs."""
        ds = generate_city(SyntheticCityConfig.tiny(days=8, num_stations=6), seed=2)
        quiet_inflow = np.zeros((ds.num_slots, ds.num_stations, ds.num_stations))
        quiet_outflow = np.zeros_like(quiet_inflow)
        # Keep one trip so normalizers have a nonzero max.
        quiet_outflow[0, 0, 1] = 1.0
        quiet_inflow[0, 1, 0] = 1.0
        rebuilt = BikeShareDataset(
            ds.registry, FlowSlots.from_dense(quiet_inflow),
            FlowSlots.from_dense(quiet_outflow), ds.config,
        )
        model = STGNNDJD.from_dataset(rebuilt, seed=0)
        demand, supply = model(rebuilt.sample(rebuilt.min_history))
        assert np.isfinite(demand.data).all()
        assert np.isfinite(supply.data).all()
