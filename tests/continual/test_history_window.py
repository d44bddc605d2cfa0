"""``history_slots()`` parity: training extraction equals the batch build.

The continual loop trains on the slots ``history_slots()`` hands it, so
the window, densified, must be **bitwise** equal to the literal dense
oracle over the same trip log — dirty records, out-of-order delivery
and in-transit trips included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import TripRecord
from repro.serve import FlowStateConfig, FlowStateStore
from tests.flow_oracle import build_flow_tensors, history_window

SLOT = 1800.0  # 30-minute slots: slots_per_day = 48


@st.composite
def event_streams(draw):
    """A dirty trip log plus a bounded-lateness delivery order."""
    num_stations = draw(st.integers(min_value=2, max_value=9))
    num_slots = draw(st.integers(min_value=8, max_value=120))
    num_trips = draw(st.integers(min_value=0, max_value=120))
    trips = []
    for trip_id in range(num_trips):
        origin = draw(st.integers(0, num_stations - 1))
        destination = draw(st.integers(0, num_stations - 1))
        start_slot = draw(st.integers(0, num_slots - 1))
        offset = draw(st.floats(min_value=0.0, max_value=SLOT - 1.0))
        start = start_slot * SLOT + offset
        duration = draw(st.floats(min_value=-2 * SLOT, max_value=6 * SLOT))
        trips.append(TripRecord(trip_id, origin, destination, start,
                                float(start + duration)))
    trips.sort(key=lambda t: t.start_time)
    for i in range(len(trips) - 1):
        gap = trips[i + 1].start_slot(SLOT) - trips[i].start_slot(SLOT)
        if gap <= 40 and draw(st.booleans()):
            trips[i], trips[i + 1] = trips[i + 1], trips[i]
    short_window = draw(st.integers(min_value=1, max_value=12))
    retained = draw(st.integers(min_value=1, max_value=130))
    return num_stations, num_slots, trips, short_window, retained


def _build_store(stream):
    num_stations, num_slots, trips, short_window, retained = stream
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=1,
        retained_slots=retained,
    )
    store = FlowStateStore(config)
    for trip in trips:
        store.ingest(trip)
    store.advance_to(num_slots)
    return store


def _assert_window_parity(store, stream):
    num_stations, num_slots, trips, _, _ = stream
    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    # Full retained span, default bounds: finalized slots only.
    first, inflow, outflow = history_window(store)
    assert first == store.oldest_retained
    assert inflow.shape[0] == num_slots - first
    assert np.array_equal(inflow, batch_inflow[first:num_slots])
    assert np.array_equal(outflow, batch_outflow[first:num_slots])
    # A strict sub-window ending before the frontier.
    span = num_slots - first
    if span >= 2:
        sub = span // 2
        end = first + sub + (span - sub) // 2
        f2, in2, out2 = history_window(store, slots=sub, end=end)
        assert f2 == end - sub
        assert np.array_equal(in2, batch_inflow[f2:end])
        assert np.array_equal(out2, batch_outflow[f2:end])


@given(stream=event_streams())
@settings(max_examples=40, deadline=None)
def test_history_window_matches_batch_bitwise(stream):
    store = _build_store(stream)
    _assert_window_parity(store, stream)


def test_history_window_excludes_open_frontier():
    config = FlowStateConfig(
        num_stations=7, slot_seconds=SLOT, short_window=4, long_days=1
    )
    store = FlowStateStore(config)
    store.advance_to(5)
    # A trip in the open frontier slot must not appear in any window.
    store.ingest(TripRecord(0, 0, 1, 5 * SLOT + 1.0, 5 * SLOT + 2.0))
    _, inflow, outflow = history_window(store)
    assert inflow.sum() == 0.0 and outflow.sum() == 0.0
    store.advance_to(6)
    _, inflow, outflow = history_window(store, slots=1)
    # Outflow rows are origins, inflow rows are destinations (Def. 1).
    assert outflow[0, 0, 1] == 1.0 and inflow[0, 1, 0] == 1.0


def test_history_window_validates_bounds():
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    )
    store = FlowStateStore(config)
    store.advance_to(60)  # retention = horizon = 48, so slots 12.. retained
    with pytest.raises(ValueError):
        history_window(store, slots=49)  # deeper than retention
    with pytest.raises(ValueError):
        history_window(store, end=61)  # beyond the frontier
    with pytest.raises(ValueError):
        history_window(store, slots=2, end=5)  # evicted slots
    first, inflow, _ = history_window(store, slots=0)
    assert inflow.shape == (0, 3, 3)
