"""Extraction bridge: live store history -> training-ready datasets.

The continual loop's candidate must train on exactly the slots the
offline pipeline would have built from the same trips, in exactly the
input space the live model serves in. These tests pin that: extracted
slot arrays match the batch builder's bitwise, pinned normalizers are
the deployment's scalers (not refit on the window), and holdback
samples reproduce ``dataset.sample()`` for the same absolute slots.
"""

import numpy as np
import pytest

from repro.continual import (
    InsufficientHistoryError,
    extract_training_dataset,
    holdback_samples,
    window_bounds,
)
from repro.data import build_flow_slots, clean_trips
from repro.data.synthetic import (
    SyntheticCityConfig,
    build_city,
    generate_city,
    generate_trips,
)
from repro.serve.state import FlowStateConfig, FlowStateStore
from tests.windows import assert_sample_windows_equal


@pytest.fixture(scope="module")
def city():
    return generate_city(
        SyntheticCityConfig.tiny(days=10, num_stations=6), seed=42
    )


def _store(city, retained=9 * 24):
    return FlowStateStore.from_dataset(city, retained_slots=retained)


def assert_slot_arrays_equal(ours, theirs, start=0):
    """``ours`` holds bitwise the slots ``start ..`` of ``theirs``."""
    lo = theirs.indptr[start]
    hi = theirs.indptr[start + ours.num_slots]
    expected = {
        "indptr": theirs.indptr[start : start + ours.num_slots + 1] - lo,
        "index": theirs.index[lo:hi],
        "count": theirs.count[lo:hi],
    }
    assert ours.num_stations == theirs.num_stations
    for field, array in expected.items():
        actual = getattr(ours, field)
        assert actual.dtype == array.dtype and np.array_equal(actual, array), field


class TestWindowBounds:
    def test_day_aligned_and_holdback_separated(self, city):
        store = _store(city)
        spd = store.config.slots_per_day
        start, end = window_bounds(store, train_days=7, holdback_slots=6)
        assert end % spd == 0 and start % spd == 0
        assert end - start == 7 * spd
        assert end <= store.frontier - 6

    def test_insufficient_history_raises(self, city):
        store = _store(city)
        with pytest.raises(InsufficientHistoryError):
            window_bounds(store, train_days=30)
        shallow = _store(city, retained=48)
        with pytest.raises(InsufficientHistoryError):
            window_bounds(shallow, train_days=7)

    def test_validation(self, city):
        store = _store(city)
        with pytest.raises(ValueError):
            window_bounds(store, train_days=0)
        with pytest.raises(ValueError):
            window_bounds(store, train_days=1, holdback_slots=-1)


class TestExtractTrainingDataset:
    def test_tensors_match_source_dataset_bitwise(self, city):
        store = _store(city)
        dataset, start = extract_training_dataset(
            store, city.registry, train_days=7, holdback_slots=6,
            demand_normalizer=city.demand_normalizer,
            supply_normalizer=city.supply_normalizer,
            flow_scale=city.flow_scale,
        )
        assert_slot_arrays_equal(dataset.inflow_slots, city.inflow_slots, start)
        assert_slot_arrays_equal(dataset.outflow_slots, city.outflow_slots, start)
        assert np.array_equal(dataset.demand, city.demand[start : start + dataset.num_slots])

    def test_streamed_extraction_equals_batch_builder_bitwise(self):
        """Trips streamed into a cold store extract to the slots
        ``build_flow_slots`` builds from the same trips."""
        config = SyntheticCityConfig.tiny(days=10, num_stations=6)
        synthetic = build_city(config, seed=3)
        trips, _ = clean_trips(generate_trips(synthetic, seed=3), config.num_stations)
        num_slots = config.days * config.slots_per_day
        store = FlowStateStore(FlowStateConfig(
            num_stations=config.num_stations, slot_seconds=config.slot_seconds,
            short_window=config.short_window, long_days=config.long_days,
            retained_slots=num_slots,
        ))
        for trip in sorted(trips, key=lambda trip: trip.start_time):
            assert store.ingest(trip)
        store.advance_to(num_slots)
        dataset, start = extract_training_dataset(
            store, synthetic.registry, train_days=7
        )
        assert dataset.num_slots == 7 * config.slots_per_day
        inflow, outflow = build_flow_slots(
            trips, config.num_stations, num_slots, config.slot_seconds
        )
        assert_slot_arrays_equal(dataset.inflow_slots, inflow, start)
        assert_slot_arrays_equal(dataset.outflow_slots, outflow, start)

    def test_pinned_normalizers_are_the_deployments(self, city):
        store = _store(city)
        dataset, _ = extract_training_dataset(
            store, city.registry, train_days=7, holdback_slots=6,
            demand_normalizer=city.demand_normalizer,
            supply_normalizer=city.supply_normalizer,
            flow_scale=city.flow_scale,
        )
        assert dataset.demand_normalizer is city.demand_normalizer
        assert dataset.supply_normalizer is city.supply_normalizer
        assert dataset.flow_scale == city.flow_scale

    def test_both_or_neither_normalizers(self, city):
        store = _store(city)
        with pytest.raises(ValueError, match="both"):
            extract_training_dataset(
                store, city.registry, train_days=7,
                demand_normalizer=city.demand_normalizer,
            )
        with pytest.raises(ValueError, match="flow_scale"):
            extract_training_dataset(
                store, city.registry, train_days=7,
                demand_normalizer=city.demand_normalizer,
                supply_normalizer=city.supply_normalizer,
            )


class TestHoldbackSamples:
    def test_samples_match_dataset_windows_bitwise(self, city):
        store = _store(city)
        samples = holdback_samples(store, 6)
        assert len(samples) == 6
        assert [s.t for s in samples] == list(
            range(store.frontier - 6, store.frontier)
        )
        for sample in samples:
            reference = city.sample(sample.t)
            assert_sample_windows_equal(sample, reference)
            assert np.array_equal(sample.target_demand, reference.target_demand)
            assert np.array_equal(sample.target_supply, reference.target_supply)

    def test_insufficient_retention_raises(self, city):
        store = _store(city, retained=50)
        with pytest.raises(InsufficientHistoryError):
            holdback_samples(store, 12)
        with pytest.raises(ValueError):
            holdback_samples(store, 0)
