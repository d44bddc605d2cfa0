"""BikeShareDataset: windows, splits, normalizers, sampling."""

import tracemalloc

import numpy as np
import pytest

from repro.data import (
    BikeShareDataset,
    FlowDataConfig,
    FlowSlots,
    Station,
    StationRegistry,
    TripRecord,
    build_flow_slots,
)


def make_dataset(days=6, n=3, spd=4, seed=0):
    """Dense random dataset with slot_seconds = 86400/spd."""
    rng = np.random.default_rng(seed)
    slots = days * spd
    inflow = rng.poisson(2.0, size=(slots, n, n)).astype(float)
    outflow = rng.poisson(2.0, size=(slots, n, n)).astype(float)
    registry = StationRegistry([Station(i, 0.01 * i, 0.0) for i in range(n)])
    config = FlowDataConfig(
        slot_seconds=86400.0 / spd, short_window=spd, long_days=2
    )
    return BikeShareDataset(
        registry, FlowSlots.from_dense(inflow), FlowSlots.from_dense(outflow),
        config, name="unit",
    )


def dense_flows(ds):
    """The dataset's ``(inflow, outflow)`` as dense ``(T, n, n)`` tensors."""
    return ds.inflow_slots.dense(), ds.outflow_slots.dense()


def first_slots(slots, count):
    """The first ``count`` slots of a :class:`FlowSlots`."""
    return FlowSlots.from_dense(slots.dense()[:count])


class TestFlowDataConfig:
    def test_slots_per_day(self):
        assert FlowDataConfig(slot_seconds=900.0).slots_per_day == 96

    def test_rejects_uneven_slot(self):
        with pytest.raises(ValueError):
            FlowDataConfig(slot_seconds=1000.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            FlowDataConfig(train_fraction=0.9, val_fraction=0.2)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            FlowDataConfig(short_window=0)
        with pytest.raises(ValueError):
            FlowDataConfig(long_days=0)


class TestDatasetConstruction:
    def test_dimensions(self):
        ds = make_dataset(days=6, n=3, spd=4)
        assert ds.num_stations == 3
        assert ds.num_days == 6
        assert ds.num_slots == 24

    def test_rejects_partial_days(self):
        ds = make_dataset()
        short = ds.num_slots - 1
        with pytest.raises(ValueError):
            BikeShareDataset(
                ds.registry, first_slots(ds.inflow_slots, short),
                first_slots(ds.outflow_slots, short), ds.config,
            )

    def test_rejects_station_mismatch(self):
        ds = make_dataset(n=3)
        small_registry = StationRegistry([Station(0, 0, 0), Station(1, 0.1, 0)])
        with pytest.raises(ValueError):
            BikeShareDataset(
                small_registry, ds.inflow_slots, ds.outflow_slots, ds.config
            )

    def test_demand_supply_derived(self):
        ds = make_dataset()
        inflow, outflow = dense_flows(ds)
        np.testing.assert_array_equal(ds.demand, outflow.sum(axis=2))
        np.testing.assert_array_equal(ds.supply, inflow.sum(axis=2))

    def test_outflow_is_a_read_only_dense_view(self):
        ds = make_dataset()
        outflow = ds.outflow
        assert outflow.shape == (ds.num_slots, 3, 3)
        np.testing.assert_array_equal(outflow, ds.outflow_slots.dense())
        outflow[:] = 0.0  # a fresh copy: the dataset is unaffected
        assert ds.outflow.sum() == ds.demand.sum() > 0
        with pytest.raises(AttributeError):
            ds.outflow = outflow
        assert not hasattr(ds, "inflow")


class TestSplits:
    def test_day_aligned_disjoint_ordered(self):
        ds = make_dataset(days=10)
        train, val, test = ds.split_indices()
        assert set(train).isdisjoint(val)
        assert set(val).isdisjoint(test)
        assert train.max() < val.min() < test.max()

    def test_min_history_excluded(self):
        ds = make_dataset(days=10)
        train, _, _ = ds.split_indices()
        assert train.min() >= ds.min_history

    def test_split_covers_remaining_slots(self):
        ds = make_dataset(days=10)
        train, val, test = ds.split_indices()
        assert len(train) + len(val) + len(test) == ds.num_slots - ds.min_history

    def test_too_few_days_rejected(self):
        ds = make_dataset(days=2)
        with pytest.raises(ValueError):
            ds.split_indices()


class TestSampling:
    def test_sample_shapes(self):
        ds = make_dataset(days=6, n=3, spd=4)
        sample = ds.sample(ds.min_history)
        assert sample.short_inflow.shape == (4, 3, 3)
        assert sample.long_inflow.shape == (2, 3, 3)
        assert sample.target_demand.shape == (3,)

    def test_short_window_is_immediately_preceding(self):
        ds = make_dataset()
        t = ds.min_history + 1
        sample = ds.sample(t)
        inflow, _ = dense_flows(ds)
        np.testing.assert_allclose(sample.short_inflow.dense(), inflow[t - 4 : t])

    def test_long_window_is_same_slot_of_previous_days(self):
        ds = make_dataset()
        t = ds.min_history + 2
        sample = ds.sample(t)
        spd = ds.slots_per_day
        long_inflow = sample.long_inflow.dense()
        inflow, _ = dense_flows(ds)
        np.testing.assert_allclose(long_inflow[-1], inflow[t - spd])
        np.testing.assert_allclose(long_inflow[0], inflow[t - 2 * spd])

    def test_targets_match_dataset(self):
        ds = make_dataset()
        t = ds.min_history
        sample = ds.sample(t)
        np.testing.assert_allclose(sample.target_demand, ds.demand[t])
        np.testing.assert_allclose(sample.target_supply, ds.supply[t])

    def test_out_of_range_rejected(self):
        ds = make_dataset()
        with pytest.raises(IndexError):
            ds.sample(0)
        with pytest.raises(IndexError):
            ds.sample(ds.num_slots)

    def test_slot_of_day(self):
        ds = make_dataset(spd=4)
        assert ds.slot_of_day(5) == 1


class TestWindowCache:
    """Windows built from the slot CSR must equal freshly stacked windows.

    The seed built every window with fancy indexing over the dense flow
    tensors; the dataset now slices canonical per-slot COO entries.
    These are the regression tests for that substitution: for *every*
    valid ``t`` the densified windows must be elementwise identical to
    the original construction.
    """

    def test_cache_matches_fresh_stacks_for_all_valid_t(self):
        ds = make_dataset(days=7, n=4, spd=6, seed=3)
        k = ds.config.short_window
        d = ds.config.long_days
        spd = ds.slots_per_day
        inflow, outflow = dense_flows(ds)
        for t in range(ds.min_history, ds.num_slots):
            sample = ds.sample(t)
            # Original constructions: slices for the short window, a
            # fancy-indexed same-slot stack (oldest first) for the long.
            long_idx = [t - i * spd for i in range(d, 0, -1)]
            np.testing.assert_array_equal(
                sample.short_inflow.dense(), inflow[t - k : t]
            )
            np.testing.assert_array_equal(
                sample.short_outflow.dense(), outflow[t - k : t]
            )
            np.testing.assert_array_equal(sample.long_inflow.dense(), inflow[long_idx])
            np.testing.assert_array_equal(
                sample.long_outflow.dense(), outflow[long_idx]
            )
            np.testing.assert_array_equal(sample.target_demand, ds.demand[t])
            np.testing.assert_array_equal(sample.target_supply, ds.supply[t])

    def test_windows_are_views_not_copies(self):
        # A short window is a slice of the slot CSR: its entry arrays
        # share the dataset's memory instead of copying it.
        ds = make_dataset()
        t = ds.min_history
        sample = ds.sample(t)
        k = ds.config.short_window
        lo, hi = ds.inflow_slots.indptr[t - k], ds.inflow_slots.indptr[t]
        assert sample.short_inflow.index.base is not None
        assert np.shares_memory(sample.short_inflow.index, ds.inflow_slots.index)
        assert np.shares_memory(sample.short_inflow.count, ds.inflow_slots.count)
        assert sample.short_inflow.count.size == hi - lo

    def test_long_window_views_are_read_only(self):
        ds = make_dataset()
        sample = ds.sample(ds.min_history)
        for window in (sample.short_inflow, sample.long_inflow):
            for array in (window.channel, window.index, window.count):
                with pytest.raises(ValueError):
                    array[0] = 99


class TestNormalizers:
    def test_fit_on_training_only(self):
        ds = make_dataset(days=10)
        train, _, _ = ds.split_indices()
        assert ds.demand_normalizer.maximum == ds.demand[train].max()

    def test_flow_scale_positive(self):
        ds = make_dataset()
        assert ds.flow_scale > 0

    def test_flow_scale_is_max_training_count(self):
        ds = make_dataset(days=10)
        train, _, _ = ds.split_indices()
        inflow, outflow = dense_flows(ds)
        end = train[-1] + 1
        assert ds.flow_scale == max(inflow[:end].max(), outflow[:end].max())

    def test_flow_scale_defaults_to_one_without_training_flows(self):
        ds = make_dataset(days=10)
        empty = FlowSlots.from_dense(np.zeros((ds.num_slots, 3, 3)))
        quiet = BikeShareDataset(ds.registry, empty, empty, ds.config)
        assert quiet.flow_scale == 1.0


class TestSparseFootprint:
    def test_paper_scale_dataset_stays_sparse(self):
        """A 571-station, 2-day dataset allocates with its trips, not n^2.

        Dense float64 ``(96, 571, 571)`` inflow and outflow tensors
        alone would need about 500 MB; the canonical slots of a few
        thousand trips plus the ``(96, 571)`` demand/supply need a few MB.
        """
        n, slots, slot_seconds = 571, 96, 1800.0
        rng = np.random.default_rng(0)
        starts = rng.uniform(0, slots * slot_seconds, size=4000)
        trips = [
            TripRecord(i, int(o), int(d), float(s), float(s + rng.uniform(120, 3600)))
            for i, (o, d, s) in enumerate(
                zip(rng.integers(n, size=4000), rng.integers(n, size=4000), starts)
            )
        ]
        registry = StationRegistry([Station(i, 0.001 * i, 0.0) for i in range(n)])
        config = FlowDataConfig(slot_seconds=slot_seconds, short_window=48, long_days=1)
        tracemalloc.start()
        try:
            inflow, outflow = build_flow_slots(trips, n, slots, slot_seconds)
            ds = BikeShareDataset(registry, inflow, outflow, config)
            ds.sample(ds.min_history)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.demand.sum() == len(trips)
        assert peak < 20e6, f"dataset construction peaked at {peak / 1e6:.1f} MB"
