"""Incremental-vs-batch parity: the store's exact-equivalence guarantee.

Property test over randomized event streams — including out-of-order
delivery within the retained horizon, trips still in transit at the
window edge, dirty negative-duration records, and slot-boundary
rollover — asserting that :class:`FlowStateStore`'s retained slots,
densified, are **bitwise** equal to the literal per-trip dense oracle
(:func:`tests.flow_oracle.build_flow_tensors`) over the same history,
and that its sparse windows equal a :class:`BikeShareDataset`'s
canonical windows entry for entry. Batched delivery
(:meth:`FlowStateStore.ingest_events`) must leave the store bitwise
equal to per-event delivery of the same stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STGNNDJD, STGNNDJDConfig
from repro.data import (
    BikeShareDataset,
    FlowDataConfig,
    Station,
    StationRegistry,
    build_flow_slots,
)
from repro.data.records import TripRecord
from repro.faults import FaultPlan, InjectedFault, injected
from repro.obs import metrics_scope
from repro.serve import FlowStateConfig, FlowStateStore
from repro.tensor import inference_mode
from tests.flow_oracle import build_flow_tensors, retained_tensors
from tests.windows import assert_sample_windows_equal

SLOT = 1800.0  # 30-minute slots keep slots_per_day (48) honest but small


@st.composite
def event_streams(draw):
    """A trip log plus a bounded-lateness delivery order."""
    num_stations = draw(st.integers(min_value=2, max_value=5))
    num_slots = draw(st.integers(min_value=8, max_value=120))
    num_trips = draw(st.integers(min_value=0, max_value=120))
    trips = []
    for trip_id in range(num_trips):
        origin = draw(st.integers(0, num_stations - 1))
        destination = draw(st.integers(0, num_stations - 1))
        start_slot = draw(st.integers(0, num_slots - 1))
        # Cap the offset below SLOT with margin: a float a hair under
        # SLOT can round start_slot*SLOT + offset up into the next slot.
        offset = draw(st.floats(min_value=0.0, max_value=SLOT - 1.0))
        start = start_slot * SLOT + offset
        # Durations from dirty-negative through in-transit-past-the-end.
        duration = draw(st.floats(min_value=-2 * SLOT, max_value=6 * SLOT))
        trips.append(TripRecord(trip_id, origin, destination, start,
                                float(start + duration)))
    # Deliver roughly in event-time order with local shuffling: sort by
    # start, then swap adjacent trips whose slot gap stays well inside
    # the retained horizon (>= 48 slots for 30-minute slots) — out of
    # order, but never late enough to trigger the drop policy.
    trips.sort(key=lambda t: t.start_time)
    for i in range(len(trips) - 1):
        gap = trips[i + 1].start_slot(SLOT) - trips[i].start_slot(SLOT)
        if gap <= 40 and draw(st.booleans()):
            trips[i], trips[i + 1] = trips[i + 1], trips[i]
    short_window = draw(st.integers(min_value=1, max_value=12))
    long_days = draw(st.integers(min_value=1, max_value=2))
    return num_stations, num_slots, trips, short_window, long_days


@given(event_streams())
@settings(max_examples=60, deadline=None)
def test_incremental_matches_batch_bitwise(stream):
    num_stations, num_slots, trips, short_window, long_days = stream
    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=long_days,
    )
    store = FlowStateStore(config)
    for trip in trips:
        assert store.ingest(trip)
    store.advance_to(num_slots)

    first, inflow, outflow = retained_tensors(store)
    finalized = num_slots - first  # the frontier row is the open slot
    assert np.array_equal(inflow[:finalized], batch_inflow[first:num_slots])
    assert np.array_equal(outflow[:finalized], batch_outflow[first:num_slots])


@given(event_streams())
@settings(max_examples=30, deadline=None)
def test_sample_windows_match_batch_dataset_windows(stream):
    """End-to-end: the FlowSample the store serves equals batch slicing."""
    num_stations, num_slots, trips, short_window, long_days = stream
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=long_days,
    )
    if num_slots < config.horizon:
        return  # not enough history for a full window; nothing to check
    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    store = FlowStateStore(config)
    for trip in trips:
        store.ingest(trip)
    store.advance_to(num_slots)

    sample = store.sample()
    t, k, spd = num_slots, short_window, config.slots_per_day
    np.testing.assert_array_equal(sample.short_inflow.dense(), batch_inflow[t - k : t])
    np.testing.assert_array_equal(
        sample.short_outflow.dense(), batch_outflow[t - k : t]
    )
    long_slots = np.arange(t - long_days * spd, t, spd)
    np.testing.assert_array_equal(sample.long_inflow.dense(), batch_inflow[long_slots])
    np.testing.assert_array_equal(
        sample.long_outflow.dense(), batch_outflow[long_slots]
    )


@given(event_streams())
@settings(max_examples=30, deadline=None)
def test_sample_windows_equal_dataset_canonical_windows(stream):
    """The store and the dataset build the same canonical COO windows for
    the same slots, so the model's forward on either is bitwise equal."""
    num_stations, num_slots, trips, short_window, long_days = stream
    config = FlowStateConfig(
        num_stations=num_stations,
        slot_seconds=SLOT,
        short_window=short_window,
        long_days=long_days,
    )
    if num_slots < config.horizon:
        return  # not enough history for a full window; nothing to check
    store = FlowStateStore(config)
    for trip in trips:
        store.ingest(trip)
    store.advance_to(num_slots)

    # The dataset needs whole days and t < T: pad with empty slots
    # after t (no window reads them).
    spd = config.slots_per_day
    padded = (num_slots // spd + 1) * spd
    inflow, outflow = build_flow_slots(trips, num_stations, padded, SLOT)
    registry = StationRegistry([Station(i, 0.01 * i, 0.0) for i in range(num_stations)])
    dataset = BikeShareDataset(
        registry, inflow, outflow,
        FlowDataConfig(slot_seconds=SLOT, short_window=short_window,
                       long_days=long_days),
    )
    ours, theirs = store.sample(), dataset.sample(num_slots)
    assert_sample_windows_equal(ours, theirs)

    model = STGNNDJD(
        STGNNDJDConfig(
            num_stations=num_stations, short_window=short_window,
            long_days=long_days, fcg_layers=1, pcg_layers=1, num_heads=1,
            dropout=0.0, flow_scale=3.0,
        ),
        rng=np.random.default_rng(num_slots),
    )
    model.eval()
    with inference_mode():
        served = model(ours)
        offline = model(theirs)
    for a, b in zip(served, offline):
        assert np.array_equal(a.data, b.data)


def test_interleaved_ingest_and_rollover_matches_batch():
    """Slot-by-slot live operation: ingest, advance, repeat — vs batch."""
    rng = np.random.default_rng(7)
    num_stations, num_slots = 4, 72
    trips = []
    for trip_id in range(300):
        start = rng.uniform(0, num_slots * SLOT)
        trips.append(TripRecord(
            trip_id,
            int(rng.integers(num_stations)),
            int(rng.integers(num_stations)),
            float(start),
            float(start + rng.uniform(60.0, 4 * SLOT)),
        ))
    trips.sort(key=lambda t: t.start_time)

    config = FlowStateConfig(
        num_stations=num_stations, slot_seconds=SLOT,
        short_window=8, long_days=1,
    )
    store = FlowStateStore(config)
    queue = list(trips)
    for slot in range(num_slots + 1):
        store.advance_to(slot)  # the clock ticks even with no events
        while queue and queue[0].start_slot(SLOT) <= slot:
            assert store.ingest(queue.pop(0))

    batch_inflow, batch_outflow = build_flow_tensors(
        trips, num_stations, num_slots, SLOT
    )
    first, inflow, outflow = retained_tensors(store)
    finalized = num_slots - first
    assert np.array_equal(inflow[:finalized], batch_inflow[first:num_slots])
    assert np.array_equal(outflow[:finalized], batch_outflow[first:num_slots])


def _ingest_counts(feed) -> tuple[float, float]:
    """``(applied, dropped late)`` counter increments while ``feed`` runs."""
    with metrics_scope() as registry:
        applied = registry.counter("serve.ingest_events")
        dropped = registry.counter("serve.ingest_dropped_late")
        before = applied.value, dropped.value
        feed()
        return applied.value - before[0], dropped.value - before[1]


def assert_same_store(a: FlowStateStore, b: FlowStateStore) -> None:
    """Frontier, version, pending inflow and every retained slot's
    canonical entries are bitwise equal."""
    assert (a.frontier, a.version) == (b.frontier, b.version)
    assert a._pending_inflow == b._pending_inflow
    (first_a, *flows_a), (first_b, *flows_b) = a.retained_flows(), b.retained_flows()
    assert first_a == first_b
    for x, y in zip(flows_a, flows_b):
        for name in ("indptr", "index", "count"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and np.array_equal(u, v)


@given(event_streams(), st.data())
@settings(max_examples=60, deadline=None)
def test_batched_ingest_equals_per_event_ingest(stream, data):
    """Random batch boundaries change nothing: slots, version, frontier,
    pending inflow and both ingest counters match per-event delivery."""
    num_stations, num_slots, trips, short_window, long_days = stream
    config = FlowStateConfig(
        num_stations=num_stations, slot_seconds=SLOT,
        short_window=short_window, long_days=long_days,
    )
    # Trailing slot-0 trips: dropped as late once the frontier has moved
    # a whole horizon past slot 0, applied in place before that.
    stale = data.draw(st.integers(min_value=0, max_value=3))
    events = [(t.origin, t.destination, t.start_time, t.end_time) for t in trips]
    events += [(0, 1, 10.0, 20.0)] * stale
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(events)), max_size=8
    )))
    batches = [events[i:j] for i, j in zip([0, *cuts], [*cuts, len(events)])]

    per_event, batched = FlowStateStore(config), FlowStateStore(config)
    expected = _ingest_counts(
        lambda: [per_event.ingest_event(*event) for event in events]
    )
    counts = _ingest_counts(
        lambda: [batched.ingest_events(batch) for batch in batches]
    )
    assert counts == expected
    assert_same_store(batched, per_event)
    per_event.advance_to(num_slots)
    batched.advance_to(num_slots)
    assert_same_store(batched, per_event)


def test_fault_mid_batch_keeps_the_applied_prefix_and_exact_counters():
    """A rollover fault stops its batch part-way: the events before it
    stay applied and counted, none after it run."""
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    )
    store, reference = FlowStateStore(config), FlowStateStore(config)
    head = [(0, 1, 1.0, 2.0), (2, 0, 5.0, 3 * SLOT)]
    # The third event opens slot 5; its rollover raises before it lands.
    batch = [*head, (1, 2, 5 * SLOT + 1.0, 5 * SLOT + 20.0), (1, 0, 9.0, 10.0)]
    plan = FaultPlan(seed=0).on("state.rollover", action="raise", at=1)

    def feed():
        with injected(plan), pytest.raises(InjectedFault):
            store.ingest_events(batch)

    assert _ingest_counts(feed) == (2.0, 0.0)
    for event in head:
        reference.ingest_event(*event)
    assert_same_store(store, reference)


def test_bad_station_anywhere_rejects_the_whole_batch():
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    )
    store = FlowStateStore(config)
    batch = [(0, 1, 5 * SLOT, 6 * SLOT), (1, 2, 5 * SLOT, 7 * SLOT), (3, 0, 0.0, 1.0)]

    def feed():
        with pytest.raises(ValueError, match="station ids"):
            store.ingest_events(batch)

    assert _ingest_counts(feed) == (0.0, 0.0)
    assert_same_store(store, FlowStateStore(config))
