"""Unit tests for the incremental flow-state store."""

import tracemalloc

import numpy as np
import pytest

from repro.data.records import TripRecord
from repro.serve import FlowStateConfig, FlowStateStore
from tests.flow_oracle import retained_tensors
from tests.windows import assert_sample_windows_equal


def _config(**overrides):
    defaults = dict(
        num_stations=4, slot_seconds=3600.0, short_window=6, long_days=1
    )
    defaults.update(overrides)
    return FlowStateConfig(**defaults)


def _trip(origin, destination, start_slot, end_slot, slot=3600.0):
    return TripRecord(0, origin, destination, start_slot * slot + 1.0,
                      end_slot * slot + 1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(num_stations=0)
        with pytest.raises(ValueError):
            _config(slot_seconds=-1.0)
        with pytest.raises(ValueError):
            _config(slot_seconds=7000.0)  # does not divide a day
        with pytest.raises(ValueError):
            _config(short_window=0)
        with pytest.raises(ValueError):
            _config(long_days=0)

    def test_horizon_is_deepest_lookback(self):
        assert _config(short_window=6, long_days=1).horizon == 24
        assert _config(short_window=30, long_days=1).horizon == 30

    def test_for_dataset_matches_dimensions(self, tiny_dataset):
        config = FlowStateConfig.for_dataset(tiny_dataset)
        assert config.num_stations == tiny_dataset.num_stations
        assert config.short_window == tiny_dataset.config.short_window
        assert config.long_days == tiny_dataset.config.long_days
        assert config.slots_per_day == tiny_dataset.slots_per_day


class TestIngest:
    def test_outflow_lands_in_start_slot(self):
        store = FlowStateStore(_config())
        assert store.ingest(_trip(1, 2, start_slot=0, end_slot=0))
        _, inflow, outflow = retained_tensors(store)
        assert outflow[0, 1, 2] == 1.0
        assert inflow[0, 2, 1] == 1.0

    def test_frontier_auto_advances(self):
        store = FlowStateStore(_config())
        store.ingest(_trip(0, 1, start_slot=5, end_slot=5))
        assert store.frontier == 5

    def test_in_transit_inflow_waits_for_rollover(self):
        store = FlowStateStore(_config())
        store.ingest(_trip(0, 1, start_slot=0, end_slot=3))
        _, inflow, _ = retained_tensors(store)
        assert inflow.sum() == 0.0  # still in transit
        store.advance_to(3)
        first, inflow, _ = retained_tensors(store)
        assert inflow[3 - first, 1, 0] == 1.0

    def test_rollover_gap_applies_all_matured_inflow(self):
        store = FlowStateStore(_config())
        store.ingest(_trip(0, 1, start_slot=0, end_slot=2))
        store.ingest(_trip(2, 3, start_slot=0, end_slot=4))
        store.advance_to(10)
        first, inflow, _ = retained_tensors(store)
        assert inflow[2 - first, 1, 0] == 1.0
        assert inflow[4 - first, 3, 2] == 1.0

    def test_late_event_within_horizon_is_applied(self):
        store = FlowStateStore(_config())
        store.advance_to(10)
        version = store.version
        assert store.ingest(_trip(1, 0, start_slot=8, end_slot=9))
        first, inflow, outflow = retained_tensors(store)
        assert outflow[8 - first, 1, 0] == 1.0
        assert inflow[9 - first, 0, 1] == 1.0
        assert store.version > version  # forecast caches must invalidate

    def test_dirty_return_into_a_closed_slot_bumps_version(self):
        # Checkout in the open slot, return stamped one slot earlier: only
        # the inflow lands behind the frontier, and that alone is stale.
        store = FlowStateStore(_config())
        store.advance_to(10)
        version = store.version
        assert store.ingest(_trip(1, 0, start_slot=10, end_slot=9))
        first, inflow, _ = retained_tensors(store)
        assert inflow[9 - first, 0, 1] == 1.0
        assert store.version == version + 1

    def test_event_behind_horizon_dropped_by_default(self):
        store = FlowStateStore(_config())
        store.advance_to(100)
        assert not store.ingest(_trip(0, 1, start_slot=2, end_slot=3))
        _, inflow, outflow = retained_tensors(store)
        assert inflow.sum() == 0.0 and outflow.sum() == 0.0

    def test_negative_return_time_ignored_like_batch(self):
        # build_flow_slots drops inflow for end_slot < 0; so do we.
        store = FlowStateStore(_config())
        store.ingest_event(0, 1, start_time=10.0, end_time=-5000.0)
        _, inflow, outflow = retained_tensors(store)
        assert outflow[0, 0, 1] == 1.0
        assert inflow.sum() == 0.0

    def test_rejects_unknown_stations(self):
        store = FlowStateStore(_config())
        with pytest.raises(ValueError):
            store.ingest_event(9, 0, 0.0, 10.0)
        with pytest.raises(ValueError):
            store.ingest_event(0, -1, 0.0, 10.0)

    def test_rejects_prehistoric_start(self):
        store = FlowStateStore(_config())
        with pytest.raises(ValueError):
            store.ingest_event(0, 1, start_time=-10.0, end_time=10.0)


class TestRollover:
    def test_cannot_advance_backwards(self):
        store = FlowStateStore(_config())
        store.advance_to(5)
        with pytest.raises(ValueError):
            store.advance_to(4)

    def test_advance_is_idempotent_at_frontier(self):
        store = FlowStateStore(_config())
        store.advance_to(5)
        version = store.version
        store.advance_to(5)
        assert store.version == version

    def test_eviction_zeroes_recycled_slots(self):
        config = _config()
        store = FlowStateStore(config)
        store.ingest(_trip(0, 1, start_slot=0, end_slot=0))
        # Push slot 0 off the horizon; its ring row is recycled clean.
        store.advance_to(config.horizon + 1)
        _, inflow, outflow = retained_tensors(store)
        assert inflow.sum() == 0.0 and outflow.sum() == 0.0

    def test_version_bumps_on_rollover(self):
        store = FlowStateStore(_config())
        before = store.version
        store.advance_to(1)
        assert store.version > before

    def test_rollover_listener_fires_once_per_advance(self):
        store = FlowStateStore(_config())
        calls = []
        store.add_rollover_listener(
            lambda s, closed: calls.append((s.frontier, closed))
        )
        store.advance_to(3)
        store.advance_to(3)  # no-op: nothing closed
        store.ingest(_trip(0, 1, start_slot=5, end_slot=5))  # auto-advance
        assert calls == [(3, range(0, 3)), (5, range(3, 5))]


class TestSample:
    def test_requires_full_history(self):
        store = FlowStateStore(_config())
        with pytest.raises(IndexError):
            store.sample()

    def test_warm_start_matches_dataset_sample(self, tiny_dataset):
        t = tiny_dataset.min_history + 3
        store = FlowStateStore.from_dataset(tiny_dataset, frontier=t)
        ours, theirs = store.sample(), tiny_dataset.sample(t)
        assert ours.t == theirs.t == t
        assert_sample_windows_equal(ours, theirs)

    def test_windows_follow_the_frontier(self, tiny_dataset):
        t = tiny_dataset.min_history + 2
        store = FlowStateStore.from_dataset(tiny_dataset, frontier=t)
        store.advance_to(t + 1)
        reference = tiny_dataset.sample(t + 1)
        ours = store.sample()
        # Slot t was never ingested online, so it reads as zeros; all
        # other window rows must match the dataset exactly.
        np.testing.assert_array_equal(ours.short_inflow.dense()[:-1],
                                      reference.short_inflow.dense()[:-1])
        assert ours.short_inflow.dense()[-1].sum() == 0.0

    def test_targets_are_zero(self, tiny_dataset):
        store = FlowStateStore.from_dataset(tiny_dataset)
        sample = store.sample()
        assert sample.target_demand.sum() == 0.0
        assert sample.target_supply.sum() == 0.0

    def test_warm_started_store_reports_warmed_up(self, tiny_dataset):
        assert FlowStateStore.from_dataset(tiny_dataset).warmed_up

    def test_cold_store_warms_after_one_horizon(self):
        config = _config()
        store = FlowStateStore(config, frontier=50)
        assert not store.warmed_up
        store.advance_to(50 + config.horizon)
        assert store.warmed_up


class TestSparseFootprint:
    def test_retained_memory_grows_with_entries_not_stations_squared(self):
        # A paper-scale store: 571 stations, 15-minute slots, k = 96,
        # d = 7, so 673 retained slots. Dense (capacity, n, n) float64
        # rings would hold 2 * 673 * 571**2 * 8 bytes = 3.5 GB; sparse
        # slots hold a few tens of bytes per trip.
        config = FlowStateConfig(num_stations=571)
        rng = np.random.default_rng(0)

        def retained_after(trips: int) -> int:
            starts = np.sort(rng.integers(0, config.horizon + 1, size=trips))
            starts = (starts * config.slot_seconds + 1.0).tolist()
            cells = rng.integers(0, 571, size=(trips, 2)).tolist()
            tracemalloc.start()
            try:
                store = FlowStateStore(config)
                for start, (origin, destination) in zip(starts, cells):
                    store.ingest_event(origin, destination, start, start + 600.0)
                store.advance_to(config.horizon + 1)
                store.sample()  # fold every window slot into canonical form
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        small, large = retained_after(2_000), retained_after(20_000)
        per_trip = (large - small) / 18_000
        assert large < 8 * 2**20  # vs ~3.5 GB dense
        assert 8 <= per_trip <= 400  # grows with trips, by bytes per trip
