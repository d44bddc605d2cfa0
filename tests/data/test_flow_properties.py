"""Property-based tests of flow bookkeeping invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import FlowSlots, TripRecord, build_flow_slots
from tests.flow_oracle import build_flow_tensors

SLOT = 900.0
SLOTS = 8


@st.composite
def trips(draw):
    count = draw(st.integers(1, 30))
    n = draw(st.integers(2, 6))
    records = []
    for trip_id in range(count):
        origin = draw(st.integers(0, n - 1))
        destination = draw(st.integers(0, n - 1))
        start = draw(st.floats(0.0, SLOTS * SLOT - 1.0, allow_nan=False))
        duration = draw(st.floats(60.0, 3 * SLOT, allow_nan=False))
        records.append(TripRecord(trip_id, origin, destination, start, start + duration))
    return records, n


def dense(records, n):
    inflow, outflow = build_flow_slots(records, n, SLOTS, SLOT)
    return inflow.dense(), outflow.dense()


class TestFlowInvariants:
    @given(trips())
    @settings(max_examples=50, deadline=None)
    def test_every_trip_counted_once_in_outflow(self, data):
        records, n = data
        _, outflow = build_flow_slots(records, n, SLOTS, SLOT)
        assert outflow.count.sum() == len(records)

    @given(trips())
    @settings(max_examples=50, deadline=None)
    def test_inflow_never_exceeds_outflow(self, data):
        """Bikes can still be in transit at the horizon, never the reverse."""
        records, n = data
        inflow, outflow = build_flow_slots(records, n, SLOTS, SLOT)
        assert inflow.count.sum() <= outflow.count.sum()

    @given(trips())
    @settings(max_examples=50, deadline=None)
    def test_pairwise_conservation(self, data):
        """Per (origin, destination): completed arrivals <= departures."""
        records, n = data
        inflow, outflow = dense(records, n)
        departures = outflow.sum(axis=0)  # (origin, dest)
        arrivals = inflow.sum(axis=0).T  # inflow[dest, origin] -> (origin, dest)
        assert (arrivals <= departures + 1e-9).all()

    @given(trips())
    @settings(max_examples=50, deadline=None)
    def test_demand_supply_totals(self, data):
        records, n = data
        inflow, outflow = build_flow_slots(records, n, SLOTS, SLOT)
        demand, supply = outflow.row_sums(), inflow.row_sums()
        assert demand.sum() == outflow.count.sum()
        assert supply.sum() == inflow.count.sum()
        assert (demand >= 0).all() and (supply >= 0).all()


class TestBuilderMatchesDenseOracle:
    @given(trips(), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_slot_arrays_equal_oracle_bitwise(self, data, random):
        """``build_flow_slots`` over shuffled trips holds exactly the
        canonical slots of the literal per-trip dense loop — durations
        up to three slots carry some trips past the horizon."""
        records, n = data
        shuffled = list(records)
        random.shuffle(shuffled)
        built = build_flow_slots(shuffled, n, SLOTS, SLOT)
        oracle = build_flow_tensors(records, n, SLOTS, SLOT)
        for slots, tensor in zip(built, oracle):
            reference = FlowSlots.from_dense(tensor)
            for field in ("indptr", "index", "count"):
                ours, theirs = getattr(slots, field), getattr(reference, field)
                assert ours.dtype == theirs.dtype, field
                assert np.array_equal(ours, theirs), field
            assert np.array_equal(slots.dense(), tensor)
