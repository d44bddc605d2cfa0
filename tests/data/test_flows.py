"""Flow slot construction: the paper's I/O matrix bookkeeping."""

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


def trip(tid, origin, destination, start, end):
    return TripRecord(tid, origin, destination, start, end)


def build_dense(trips, num_stations, num_slots, slot_seconds):
    inflow, outflow = build_flow_slots(trips, num_stations, num_slots, slot_seconds)
    return inflow.dense(), outflow.dense()


class TestBuildFlowTensors:
    def test_single_trip_bookkeeping(self):
        # Borrow at station 1 during slot 0, return to station 2 in slot 1.
        trips = [trip(0, 1, 2, start=100.0, end=1000.0)]
        inflow, outflow = build_dense(trips, num_stations=3, num_slots=2,
                                      slot_seconds=900.0)
        # O^{t_s}_{origin, destination} += 1 at the checkout slot.
        assert outflow[0, 1, 2] == 1.0
        # I^{t_e}_{destination, origin} += 1 at the return slot.
        assert inflow[1, 2, 1] == 1.0
        assert outflow.sum() == 1.0 and inflow.sum() == 1.0

    def test_same_slot_trip(self):
        trips = [trip(0, 0, 1, start=10.0, end=20.0)]
        inflow, outflow = build_dense(trips, 2, 1, 900.0)
        assert outflow[0, 0, 1] == 1.0
        assert inflow[0, 1, 0] == 1.0

    def test_trip_ending_after_window_counts_outflow_only(self):
        trips = [trip(0, 0, 1, start=100.0, end=5000.0)]
        inflow, outflow = build_dense(trips, 2, 2, 900.0)
        assert outflow.sum() == 1.0
        assert inflow.sum() == 0.0

    def test_trip_starting_outside_window_rejected(self):
        trips = [trip(0, 0, 1, start=5000.0, end=5100.0)]
        with pytest.raises(ValueError):
            build_flow_slots(trips, 2, 2, 900.0)

    def test_counts_accumulate(self):
        trips = [trip(i, 0, 1, start=10.0 + i, end=20.0 + i) for i in range(5)]
        inflow, outflow = build_flow_slots(trips, 2, 1, 900.0)
        # One canonical entry per cell, holding the summed count.
        assert outflow.index.tolist() == [1] and outflow.count.tolist() == [5.0]
        assert inflow.index.tolist() == [2] and inflow.count.tolist() == [5.0]

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            build_flow_slots([], 0, 1, 900.0)
        with pytest.raises(ValueError):
            build_flow_slots([], 2, 1, 0.0)

    @pytest.mark.parametrize("origin, destination", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_rejects_station_ids_outside_the_registry(self, origin, destination):
        # -1 is the unknown-station sentinel of dirty feeds; it must not
        # wrap around to the last station, and n must not slip through.
        trips = [trip(7, origin, destination, start=10.0, end=100.0)]
        with pytest.raises(ValueError, match="trip 7"):
            build_flow_slots(trips, 3, 1, 900.0)

    def test_empty_log_gives_empty_slots(self):
        inflow, outflow = build_flow_slots([], 3, 4, 900.0)
        for slots in (inflow, outflow):
            assert slots.num_slots == 4 and slots.num_stations == 3
            assert slots.indptr.tolist() == [0] * 5 and slots.index.size == 0


class TestDemandSupply:
    def test_definition_1(self):
        inflow = np.zeros((1, 2, 2))
        outflow = np.zeros((1, 2, 2))
        outflow[0, 0, 1] = 3.0  # 3 bikes leave station 0
        inflow[0, 1, 0] = 2.0  # 2 bikes arrive at station 1
        demand = FlowSlots.from_dense(outflow).row_sums()
        supply = FlowSlots.from_dense(inflow).row_sums()
        np.testing.assert_allclose(demand[0], [3.0, 0.0])
        np.testing.assert_allclose(supply[0], [0.0, 2.0])

    def test_trip_conservation(self):
        """Every completed trip appears once in demand and once in supply."""
        trips = [trip(i, i % 2, (i + 1) % 2, start=50.0 * i, end=50.0 * i + 100)
                 for i in range(10)]
        inflow, outflow = build_flow_slots(trips, 2, 1, 900.0)
        assert outflow.row_sums().sum() == 10.0
        assert inflow.row_sums().sum() == 10.0

    def test_shape_validation(self):
        """The dataset derives demand/supply only from a matching pair."""
        registry = StationRegistry([Station(i, 0.01 * i, 0.0) for i in range(3)])
        config = FlowDataConfig(slot_seconds=43200.0, short_window=1, long_days=1)
        with pytest.raises(ValueError):
            BikeShareDataset(registry, FlowSlots.from_dense(np.zeros((2, 3, 3))),
                             FlowSlots.from_dense(np.zeros((4, 3, 3))), config)
        with pytest.raises(ValueError):
            BikeShareDataset(registry, FlowSlots.from_dense(np.zeros((2, 3, 3))),
                             FlowSlots.from_dense(np.zeros((2, 2, 2))), config)
