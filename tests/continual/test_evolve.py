"""Graph evolution: stations appear/disappear without a restart.

Covers the remap rules (kept values copied verbatim, new rows from the
deterministic donor init), flow-store surgery (kept history moved,
pending inflow drained for removed stations), and
training-snapshot evolution (Adam moments follow their parameters;
new-station moments start at zero).
"""

import dataclasses

import numpy as np
import pytest

from repro.continual import (
    GraphEvolution,
    evolve_flow_store,
    evolve_model,
    evolve_registry,
    evolve_training_snapshot,
)
from repro.core.model import STGNNDJD
from repro.core.persistence import training_fingerprint
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.records import TripRecord
from repro.data.synthetic import SyntheticCityConfig, generate_city
from repro.data.window import FlowWindow
from repro.serve.state import FlowStateStore
from tests.flow_oracle import history_window


@pytest.fixture(scope="module")
def city():
    return generate_city(
        SyntheticCityConfig.tiny(days=10, num_stations=8), seed=42
    )


class TestGraphEvolution:
    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            GraphEvolution(5, (2, 1), 0)
        with pytest.raises(ValueError, match="kept"):
            GraphEvolution(5, (0, 7), 0)
        with pytest.raises(ValueError):
            GraphEvolution(5, (), 1)
        with pytest.raises(ValueError):
            GraphEvolution.shrink(2, [0])  # would leave one station
        assert GraphEvolution.grow(5, 0).is_identity()

    def test_grow_and_shrink_helpers(self):
        grow = GraphEvolution.grow(4, 2)
        assert grow.kept == (0, 1, 2, 3)
        assert grow.num_stations == 6 and grow.removed == ()
        shrink = GraphEvolution.shrink(4, [1])
        assert shrink.kept == (0, 2, 3)
        assert shrink.num_stations == 3 and shrink.removed == (1,)
        assert GraphEvolution(4, (0, 1, 2, 3), 0).is_identity()
        assert not grow.is_identity()


class TestModelEvolution:
    def _model(self, n=6, seed=1):
        from repro.core.model import STGNNDJDConfig

        config = STGNNDJDConfig(
            num_stations=n, short_window=4, long_days=2,
            num_heads=2, dropout=0.0,
        )
        return STGNNDJD(config, rng=np.random.default_rng(seed))

    def test_kept_values_copied_verbatim(self):
        model = self._model()
        evolution = GraphEvolution(6, (0, 1, 3, 4, 5), 1)
        evolved = evolve_model(model, evolution, seed=3)
        assert evolved.config.num_stations == 6
        old = dict(model.named_parameters())
        new = dict(evolved.named_parameters())
        kept = np.array(evolution.kept)
        dst = np.arange(len(kept))
        gate_old = old["flow_conv.gate_inflow"].data
        gate_new = new["flow_conv.gate_inflow"].data
        assert np.array_equal(
            gate_new[np.ix_(dst, dst)], gate_old[np.ix_(kept, kept)]
        )
        # Temporal conv kernels have no station axis: copied verbatim.
        assert np.array_equal(
            new["flow_conv.short_inflow_conv.weight"].data,
            old["flow_conv.short_inflow_conv.weight"].data,
        )

    def test_new_rows_are_deterministic(self):
        model = self._model()
        evolution = GraphEvolution.grow(6, 2)
        a = evolve_model(model, evolution, seed=9)
        b = evolve_model(model, evolution, seed=9)
        for (name, pa), (_, pb) in zip(
            a.named_parameters(), b.named_parameters()
        ):
            assert np.array_equal(pa.data, pb.data), name

    def test_forward_works_after_evolution(self, city):
        model = STGNNDJD.from_dataset(
            city, seed=3, fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0
        )
        evolved = evolve_model(model, GraphEvolution.shrink(8, [2, 5]), seed=1)
        sample = city.sample(city.min_history)
        kept = np.array([0, 1, 3, 4, 6, 7])

        def sub(window):
            return FlowWindow.from_dense(window.dense()[:, kept][:, :, kept])

        small = dataclasses.replace(
            sample,
            short_inflow=sub(sample.short_inflow),
            short_outflow=sub(sample.short_outflow),
            long_inflow=sub(sample.long_inflow),
            long_outflow=sub(sample.long_outflow),
            target_demand=sample.target_demand[kept],
            target_supply=sample.target_supply[kept],
        )
        from repro.tensor import inference_mode

        with inference_mode():
            demand, supply = evolved(small)
        assert demand.data.shape == (6,)
        assert np.all(np.isfinite(demand.data))
        assert np.all(np.isfinite(supply.data))


class TestStoreEvolution:
    def test_kept_history_moves_and_new_station_is_silent(self, city):
        store = FlowStateStore.from_dataset(city, retained_slots=80)
        evolution = GraphEvolution(8, (0, 1, 3, 4, 6, 7), 1)
        evolve_flow_store(store, evolution)
        first, inflow, outflow = history_window(store, 40)
        kept = np.array(evolution.kept)
        window = slice(first, first + 40)
        city_inflow = city.inflow_slots.dense()[window]
        city_outflow = city.outflow_slots.dense()[window]
        assert np.array_equal(inflow[:, :6, :6], city_inflow[:, kept][:, :, kept])
        assert np.array_equal(outflow[:, :6, :6], city_outflow[:, kept][:, :, kept])
        assert np.all(inflow[:, 6, :] == 0) and np.all(inflow[:, :, 6] == 0)
        assert np.all(outflow[:, 6, :] == 0) and np.all(outflow[:, :, 6] == 0)

    def test_pending_inflow_drained_for_removed_stations(self, city):
        store = FlowStateStore.from_dataset(city, retained_slots=80)
        slot_seconds = store.config.slot_seconds
        t0 = store.frontier * slot_seconds
        # Two in-transit trips: one into a surviving station, one into
        # the station about to be removed.
        store.ingest(TripRecord(900, 0, 1, t0 + 1.0, t0 + 3 * slot_seconds))
        store.ingest(TripRecord(901, 0, 2, t0 + 1.0, t0 + 3 * slot_seconds))
        drained = evolve_flow_store(store, GraphEvolution.shrink(8, [2]))
        assert drained == 1.0
        store.advance_to(store.frontier + 4)
        _, inflow, _ = history_window(store, 4)
        # Station 1 kept its in-transit arrival; station 2's is gone.
        assert inflow[:, 1, 0].sum() == 1.0
        assert inflow.sum() == 1.0

    def test_version_bumps_and_ingest_continues(self, city):
        store = FlowStateStore.from_dataset(city, retained_slots=80)
        before = store.version
        evolve_flow_store(store, GraphEvolution.grow(8, 1))
        assert store.version > before
        slot_seconds = store.config.slot_seconds
        t0 = store.frontier * slot_seconds
        store.ingest(TripRecord(902, 8, 0, t0 + 1.0, t0 + 2.0))
        store.advance_to(store.frontier + 1)
        _, inflow, outflow = history_window(store, 1)
        assert outflow[0, 8, 0] == 1.0 and inflow[0, 0, 8] == 1.0


class TestSnapshotAndRegistryEvolution:
    def test_snapshot_moments_follow_parameters(self, city):
        model = STGNNDJD.from_dataset(
            city, seed=3, fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0
        )
        trainer = Trainer(
            model, city, TrainingConfig(epochs=1, batch_size=16, seed=0)
        )
        trainer.fit(1)
        snapshot = trainer.capture_snapshot()
        evolution = GraphEvolution.grow(8, 1)
        evolved = evolve_training_snapshot(
            snapshot, model.config, evolution, seed=5
        )
        donor = evolve_model(model, evolution, seed=5)
        assert evolved.fingerprint == training_fingerprint(donor)
        # Moments keep their kept-block values and zero the new rows.
        names = [name for name, _ in donor.named_parameters()]
        gate = names.index("flow_conv.gate_inflow")
        key = f"{gate:04d}"
        assert np.array_equal(
            evolved.adam_m[key][:8, :8], snapshot.adam_m[key]
        )
        assert np.all(evolved.adam_m[key][8, :] == 0)
        assert np.all(evolved.adam_v[key][:, 8] == 0)
        assert evolved.adam_step_count == snapshot.adam_step_count
        # The evolved snapshot warm-starts a trainer for the new city.
        new_trainer = Trainer(
            donor, city, TrainingConfig(epochs=1, batch_size=16, seed=0)
        )
        new_trainer.warm_start(evolved)

    def test_registry_evolution(self, city):
        evolution = GraphEvolution(8, (0, 1, 3, 4, 6, 7), 2)
        registry = evolve_registry(city.registry, evolution)
        assert len(registry) == 8
        stations = list(registry)
        originals = list(city.registry)
        assert stations[2].longitude == originals[3].longitude
        assert stations[2].station_id == 2
        assert stations[6].name.startswith("new-")
