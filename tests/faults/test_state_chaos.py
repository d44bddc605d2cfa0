"""Injected flow-state failures: lateness bounds, clock skew, interleaving.

The store's equivalence guarantee (``serve/state.py``) must survive
chaos: events beyond the lateness bound follow the configured policy
without corrupting retained slots, skewed clocks flow through the same
validation as honest ones, and an injected crash mid-ingest leaves the
state exactly as if the event never arrived (safe to redeliver).

The stateful machine at the bottom interleaves ingest, rollover and
injected ingest crashes under hypothesis, asserting bitwise parity with
the batch builder after every step — reproducible from the printed seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.data.records import TripRecord
from repro.faults import FaultPlan, InjectedFault, injected
from repro.obs import default_registry, metrics_scope
from repro.serve import FlowStateConfig, FlowStateStore
from tests.flow_oracle import build_flow_tensors, retained_tensors

SLOT = 1800.0


def make_store(frontier=0) -> FlowStateStore:
    config = FlowStateConfig(
        num_stations=3, slot_seconds=SLOT, short_window=4, long_days=1,
    )
    return FlowStateStore(config, frontier=frontier)


def trip(trip_id, start_slot, duration_slots=0.5, origin=0, destination=1):
    start = start_slot * SLOT + 10.0
    return TripRecord(
        trip_id, origin, destination, start, start + duration_slots * SLOT
    )


def assert_batch_parity(store: FlowStateStore, applied: list[TripRecord]):
    """Retained slots (open frontier included) equal the batch build."""
    num_slots = store.frontier + 1
    batch_in, batch_out = build_flow_tensors(
        applied, store.config.num_stations, num_slots, SLOT
    )
    first, inflow, outflow = retained_tensors(store)
    assert np.array_equal(inflow, batch_in[first:num_slots])
    assert np.array_equal(outflow, batch_out[first:num_slots])


class TestLatenessBound:
    def test_drop_policy_counts_and_preserves_parity(self):
        store = make_store()
        applied = [trip(0, 2), trip(1, 5)]
        for t in applied:
            assert store.ingest(t)
        store.advance_to(60)  # capacity is 49: slot <= 11 is now beyond
        with metrics_scope():
            registry = default_registry()
            registry.reset()
            registry.enabled = True
            assert store.ingest(trip(2, 11)) is False
            assert registry.counter("serve.ingest_dropped_late").value == 1
        late_ok = trip(3, 12)  # oldest retained slot: applied in place
        assert store.ingest(late_ok)
        applied.append(late_ok)
        assert_batch_parity(store, applied)

    def test_dropped_event_leaves_state_untouched(self):
        store = make_store()
        applied = [trip(0, 2)]
        store.ingest(applied[0])
        store.advance_to(60)
        before_version = store.version
        snapshot = retained_tensors(store)
        assert store.ingest(trip(1, 11)) is False
        assert store.version == before_version
        after = retained_tensors(store)
        assert np.array_equal(after[1], snapshot[1])
        assert np.array_equal(after[2], snapshot[2])
        assert_batch_parity(store, applied)


class TestClockSkew:
    def test_skewed_event_follows_the_same_late_policy(self):
        # The feed's clock drifts one event 55 slots into the past —
        # beyond the lateness bound. The skewed timestamps must hit the
        # same drop policy an honestly-late event would.
        store = make_store()
        store.advance_to(60)
        skew = 55 * SLOT
        plan = FaultPlan(seed=0).on(
            "state.clock", action="call", at=2,
            callback=lambda times: (times[0] - skew, times[1] - skew),
        )
        current = trip(0, 60)
        with injected(plan):
            assert store.ingest(trip(1, 60))          # hit 1: undisturbed
            assert store.ingest(current) is False      # hit 2: skewed, late
            assert store.ingest(trip(2, 60))          # hit 3: undisturbed
        assert len(plan.fired) == 1
        # Parity over the *effective* log: the skewed trip was dropped.
        assert_batch_parity(store, [trip(1, 60), trip(2, 60)])

    def test_forward_skew_advances_the_frontier(self):
        store = make_store()
        skew = 3 * SLOT
        plan = FaultPlan(seed=0).on(
            "state.clock", action="call", at=1,
            callback=lambda times: (times[0] + skew, times[1] + skew),
        )
        with injected(plan):
            store.ingest(trip(0, 10))
        assert store.frontier == 13  # auto-advanced to the skewed slot
        assert_batch_parity(store, [trip(0, 13)])

    def test_same_seed_replays_the_same_faults(self):
        def drive():
            store = make_store()
            plan = FaultPlan(seed=42).on(
                "state.clock", action="call", probability=0.4, max_fires=None,
                callback=lambda times: (times[0] + SLOT, times[1] + SLOT),
            )
            with injected(plan):
                for i in range(20):
                    store.ingest(trip(i, 5 + i))
            fired = [(f.site, f.call_index) for f in plan.fired]
            _, inflow, outflow = retained_tensors(store)
            return fired, inflow, outflow

        fired_a, in_a, out_a = drive()
        fired_b, in_b, out_b = drive()
        assert fired_a == fired_b and len(fired_a) > 0
        assert np.array_equal(in_a, in_b)
        assert np.array_equal(out_a, out_b)


class TestIngestCrash:
    def test_failed_ingest_is_safe_to_redeliver(self):
        # The fault fires before any mutation, so an at-least-once feed
        # can replay the event without double counting.
        store = make_store()
        survivor = trip(0, 2)
        store.ingest(survivor)
        victim = trip(1, 3)
        plan = FaultPlan(seed=0).on("state.ingest", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                store.ingest(victim)
        assert_batch_parity(store, [survivor])  # no partial application
        assert store.ingest(victim)  # redelivery applies it exactly once
        assert_batch_parity(store, [survivor, victim])


class TestRolloverCrash:
    def test_failed_rollover_leaves_the_store_unmoved(self):
        # The seam fires before any ring row is zeroed or pending inflow
        # folded, so a retried advance lands exactly where it would have.
        store = make_store()
        applied = [trip(i, i % 3, duration_slots=2.5) for i in range(6)]
        for record in applied:
            store.ingest(record)
        version = store.version
        plan = FaultPlan(seed=0).on("state.rollover", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                store.advance_to(store.frontier + 5)
        assert plan.fired
        assert (store.frontier, store.version) == (2, version)
        assert_batch_parity(store, applied)
        store.advance_to(store.frontier + 5)
        assert store.frontier == 7
        assert_batch_parity(store, applied)


class StoreChaosMachine(RuleBasedStateMachine):
    """Interleave ingest, rollover and injected crashes; check parity.

    Reproducible: a failure prints the exact rule sequence, and
    replaying it (hypothesis seeds are derandomized under CI) fires the
    same injected faults at the same call counts.
    """

    def __init__(self):
        super().__init__()
        self.store = make_store()
        self.applied: list[TripRecord] = []
        self.next_id = 0

    def _make_trip(self, slot_offset, duration_slots, origin, destination):
        start_slot = max(0, self.store.frontier + slot_offset)
        record = trip(
            self.next_id, start_slot, duration_slots, origin, destination
        )
        self.next_id += 1
        return record

    @rule(
        slot_offset=st.integers(min_value=-3, max_value=2),
        duration_slots=st.floats(min_value=-1.0, max_value=4.0),
        origin=st.integers(0, 2),
        destination=st.integers(0, 2),
    )
    def ingest(self, slot_offset, duration_slots, origin, destination):
        record = self._make_trip(slot_offset, duration_slots, origin, destination)
        if self.store.ingest(record):
            self.applied.append(record)

    @rule(gap=st.integers(min_value=1, max_value=60))
    def rollover(self, gap):
        self.store.advance_to(self.store.frontier + gap)

    @rule(
        slot_offset=st.integers(min_value=-3, max_value=2),
        duration_slots=st.floats(min_value=0.0, max_value=2.0),
    )
    def crash_then_redeliver(self, slot_offset, duration_slots):
        """An ingest dies mid-flight; the feed redelivers the event."""
        record = self._make_trip(slot_offset, duration_slots, 1, 2)
        plan = FaultPlan(seed=0).on("state.ingest", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                self.store.ingest(record)
        if self.store.ingest(record):
            self.applied.append(record)

    @invariant()
    def matches_batch_builder(self):
        assert_batch_parity(self.store, self.applied)


StoreChaosMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None
)
TestStoreChaosMachine = pytest.mark.slow(StoreChaosMachine.TestCase)
