"""Incremental flow state for online serving.

The batch pipeline (:func:`repro.data.flows.build_flow_slots`) folds a
complete trip log into canonical inflow/outflow slots in one pass; a
serving process cannot do that — it sees one trip at a time and must
keep the model's input windows current as the clock rolls over slot
boundaries. :class:`FlowStateStore` is the streaming counterpart: it
ingests individual trip events and maintains exactly the slots that
STGNN-DJD's sampler reads — the short-term window (last ``k`` slots) and
the long-term window (same slot-of-day over the previous ``d`` days) —
in O(1) amortized work per event.

Mechanics
---------
* **Ring of sparse slots** — the store retains the last ``H + 1`` slots
  where ``H = max(k, d * slots_per_day)`` is the deepest lookback any
  window needs; slot ``s`` lives at ring row ``s % (H + 1)``. A row holds
  that slot's flows as COO entries (flat cell ``origin * n +
  destination`` and count, DESIGN "Sparse flow windows"), never as a
  dense ``n x n`` matrix, so memory grows with trips, not with ``n^2``.
  Advancing the frontier one slot replaces exactly one row with an
  empty one (evicting the slot that just fell off the horizon): O(1).
* **Per-event accumulation** — a trip appends its flat cell to the
  outflow row of its checkout slot and to the inflow row of its return
  slot. When a slot closes, each of its rows folds its events into
  canonical entries (:func:`repro.data.window.canonical_entries`) once
  and keeps them; an event landing later invalidates just that row's
  canonical form, which the next read rebuilds.
* **Batches** — :meth:`FlowStateStore.ingest_events` validates a whole
  batch (station ids, start slot, per-event fault seams) before it
  applies any event, then applies them in order under one lock hold,
  exactly as the same events one :meth:`~FlowStateStore.ingest_event`
  call at a time would; a malformed event rejects its batch untouched.
* **In-transit inflow** — a trip that ends after the frontier parks its
  inflow event in a pending per-slot list, which becomes the slot's
  inflow row when the frontier reaches it. This mirrors the batch
  semantics where a trip ending beyond the window contributes outflow
  only.
* **Late events** — events landing in a retained slot behind the
  frontier are applied in place (and bump :attr:`FlowStateStore.version`
  so forecast caches invalidate); events older than the retained
  horizon are counted (``serve.ingest_dropped_late``) and dropped.

Equivalence guarantee
---------------------
After ingesting a trip log (in any order whose lateness stays within the
horizon) and advancing to slot ``T``, each retained slot's canonical
entries are **bitwise equal** to the same slot of ``build_flow_slots(trips,
n, T, slot_seconds)``: both count trips in float64, and integer-valued
float64 sums are exact far beyond any realistic trip count, so the
accumulation order cannot change a single bit. So
:meth:`FlowStateStore.history_slots` hands the continual trainer the
slots a :class:`repro.data.dataset.BikeShareDataset` built offline would
hold, and :meth:`FlowStateStore.sample` and ``dataset.sample(t)`` return
equal windows entry for entry. ``tests/serve/test_state_parity.py``
asserts this over randomized, shuffled, late-heavy event streams against
a literal per-trip dense oracle.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import BikeShareDataset, FlowSample
from repro.data.records import SECONDS_PER_DAY, TripRecord
from repro.data.window import FlowSlots, FlowWindow, canonical_entries
from repro.faults import active_plan, fault_point, fault_transform
from repro.obs.registry import default_registry


@dataclass(frozen=True, slots=True)
class FlowStateConfig:
    """Dimensions and retention of an incremental flow store.

    ``num_stations``, ``slot_seconds``, ``short_window`` (``k``) and
    ``long_days`` (``d``) mirror :class:`repro.data.dataset.FlowDataConfig`.
    ``retained_slots`` optionally deepens retention beyond the
    sampling horizon so an online trainer can pull multi-day training
    windows out of the live store (:meth:`FlowStateStore.history_slots`)
    — it never shrinks below :attr:`horizon`.
    """

    num_stations: int
    slot_seconds: float = 900.0
    short_window: int = 96
    long_days: int = 7
    retained_slots: int | None = None

    def __post_init__(self) -> None:
        if self.num_stations < 1:
            raise ValueError(f"num_stations must be >= 1, got {self.num_stations}")
        if self.slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {self.slot_seconds}")
        if SECONDS_PER_DAY % self.slot_seconds != 0:
            raise ValueError(
                f"slot_seconds ({self.slot_seconds}) must divide a day evenly"
            )
        if self.short_window < 1:
            raise ValueError(f"short_window must be >= 1, got {self.short_window}")
        if self.long_days < 1:
            raise ValueError(f"long_days must be >= 1, got {self.long_days}")
        if self.retained_slots is not None and self.retained_slots < 1:
            raise ValueError(
                f"retained_slots must be >= 1 when set, got {self.retained_slots}"
            )

    @property
    def slots_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.slot_seconds)

    @property
    def horizon(self) -> int:
        """Deepest lookback any sample window needs, in slots."""
        return max(self.short_window, self.long_days * self.slots_per_day)

    @property
    def retention(self) -> int:
        """Slots kept behind the frontier: the sampling horizon, or more
        when ``retained_slots`` asks for a deeper training window."""
        return max(self.horizon, self.retained_slots or 0)

    @classmethod
    def for_dataset(
        cls,
        dataset: BikeShareDataset,
        retained_slots: int | None = None,
    ) -> "FlowStateConfig":
        """A config matching a dataset's dimensions and windows."""
        return cls(
            num_stations=dataset.num_stations,
            slot_seconds=dataset.config.slot_seconds,
            short_window=dataset.config.short_window,
            long_days=dataset.config.long_days,
            retained_slots=retained_slots,
        )


_NO_INDEX, _NO_COUNT = canonical_entries([])


class _SlotEntries:
    """One slot's flows in one direction: canonical COO entries plus the
    events appended since they were last folded in."""

    __slots__ = ("index", "count", "events")

    def __init__(
        self,
        events: list[int] | None = None,
        index: np.ndarray = _NO_INDEX,
        count: np.ndarray = _NO_COUNT,
    ) -> None:
        self.events = [] if events is None else events
        self.index = index
        self.count = count

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical ``(index, count)``, folding in pending events."""
        if self.events:
            events = np.asarray(self.events, dtype=np.int64)
            if self.index.size:
                self.index, self.count = canonical_entries(
                    np.concatenate([self.index, events]),
                    np.concatenate([self.count, np.ones(events.size)]),
                )
            else:
                self.index, self.count = canonical_entries(events)
            self.events = []
        return self.index, self.count


class FlowStateStore:
    """Rolling inflow/outflow state, updated one trip event (or one
    batch of them) at a time. An event that starts behind the retained
    horizon is counted in ``serve.ingest_dropped_late`` and dropped.

    Thread-safe: ingest/advance/sample take an internal lock, so HTTP
    handler threads can feed the store while the prediction dispatcher
    reads windows from it.
    """

    def __init__(self, config: FlowStateConfig, frontier: int = 0) -> None:
        if frontier < 0:
            raise ValueError(f"frontier must be >= 0, got {frontier}")
        self.config = config
        n = config.num_stations
        self._capacity = config.retention + 1  # retained slots: (f - R, f]
        self._inflow = [_SlotEntries() for _ in range(self._capacity)]
        self._outflow = [_SlotEntries() for _ in range(self._capacity)]
        #: Return events of trips still in transit, by return slot.
        self._pending_inflow: dict[int, list[int]] = {}
        self._frontier = frontier
        self._start_frontier = frontier
        self._warm_started = False
        #: Monotonic counter bumped whenever the windows visible to
        #: ``sample()`` may have changed (rollover or a late event
        #: landing behind the frontier). Forecast caches key on it.
        self.version = 0
        self._lock = threading.RLock()
        self._zero_target = np.zeros(n)
        self._zero_target.setflags(write=False)
        obs = default_registry()
        self._events_counter = obs.counter("serve.ingest_events")
        self._late_dropped_counter = obs.counter("serve.ingest_dropped_late")
        self._rollover_counter = obs.counter("serve.rollovers")
        self._frontier_gauge = obs.gauge("serve.frontier")
        #: Rollover listeners: fn(store, closed_slots) called after each
        #: frontier advance with the range of slots that just closed.
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(
        cls,
        dataset: BikeShareDataset,
        frontier: int | None = None,
        retained_slots: int | None = None,
    ) -> "FlowStateStore":
        """Warm-start a store from a dataset's flow slots.

        ``frontier`` defaults to ``dataset.num_slots`` — the store picks
        up exactly where the offline slots end, with every retained
        slot already populated, so the first online prediction has full
        windows instead of a zero-padded warm-up.
        """
        config = FlowStateConfig.for_dataset(dataset, retained_slots=retained_slots)
        frontier = dataset.num_slots if frontier is None else frontier
        if not 0 <= frontier <= dataset.num_slots:
            raise ValueError(
                f"frontier {frontier} outside the dataset's 0..{dataset.num_slots}"
            )
        store = cls(config, frontier=frontier)
        first = max(0, frontier - config.retention)
        for slot in range(first, frontier):
            row = slot % store._capacity
            store._inflow[row] = _SlotEntries(None, *dataset.inflow_slots.slot(slot))
            store._outflow[row] = _SlotEntries(None, *dataset.outflow_slots.slot(slot))
        store._warm_started = True
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frontier(self) -> int:
        """The open slot currently accumulating events."""
        return self._frontier

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def oldest_retained(self) -> int:
        """Oldest slot still held in the ring (never below 0)."""
        return max(0, self._frontier - self.config.retention)

    @property
    def warmed_up(self) -> bool:
        """Whether every retained slot has been observed (or warm-started).

        A store constructed cold at ``frontier > 0`` reads zeros for the
        slots it never saw; until one full horizon of rollover those
        zeros leak into the sample windows.
        """
        return (
            self._warm_started
            or self._start_frontier == 0
            or self._frontier - self._start_frontier >= self.config.horizon
        )

    def __repr__(self) -> str:
        return (
            f"FlowStateStore(stations={self.config.num_stations}, "
            f"frontier={self._frontier}, horizon={self.config.horizon}, "
            f"pending={len(self._pending_inflow)}, version={self.version})"
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, trip: TripRecord) -> bool:
        """Fold one trip into the flow state; ``False`` if dropped as late."""
        return self.ingest_event(
            trip.origin, trip.destination, trip.start_time, trip.end_time
        )

    def ingest_event(
        self,
        origin: int,
        destination: int,
        start_time: float,
        end_time: float,
    ) -> bool:
        """Fold one (origin, destination, start, end) event into the state.

        A one-event :meth:`ingest_events`. Returns ``True`` if the event
        was applied, ``False`` if it was dropped as late.
        """
        return self.ingest_events(((origin, destination, start_time, end_time),)) == 1

    def ingest_events(self, events: Iterable[tuple[int, int, float, float]]) -> int:
        """Fold ``(origin, destination, start, end)`` events in order;
        returns how many were applied (the rest were dropped as late).

        Every event is validated before any is applied, so a bad station
        id or a start before slot 0 anywhere in ``events`` raises with
        the store untouched. The events are then applied under one lock
        hold. The frontier auto-advances when an event starts in a
        future slot, so a store fed in event-time order needs no
        external clock. If a batch stops part-way (a rollover listener
        or fault raising mid-advance), the events before the stop stay
        applied and counted.
        """
        n = self.config.num_stations
        slot_seconds = self.config.slot_seconds
        # Chaos seams, per event, when a plan is armed: "state.clock"
        # lets it skew the timestamps in flight (modelling feed clock
        # drift); the skewed times then flow through the exact same
        # validation and late drop as real ones. "state.ingest" can
        # raise or hang per event.
        armed = active_plan() is not None
        slots = []
        for origin, destination, start_time, end_time in events:
            if armed:
                fault_point("state.ingest")
                start_time, end_time = fault_transform(
                    "state.clock", (start_time, end_time)
                )
            if not (0 <= origin < n and 0 <= destination < n):
                raise ValueError(
                    f"station ids must be in 0..{n - 1}, got {origin}->{destination}"
                )
            start_slot = int(start_time // slot_seconds)
            if start_slot < 0:
                raise ValueError(
                    f"event starts before slot 0 (start_time={start_time})"
                )
            slots.append((origin, destination, start_slot, int(end_time // slot_seconds)))
        applied = dropped = 0
        # acquire/release rather than ``with``: on CPython 3.11 the
        # context-manager protocol doubles the lock's cost, which a
        # one-event call (``ingest_event``) would feel.
        self._lock.acquire()
        try:
            n = self.config.num_stations  # re-read: evolution may resize
            capacity = self._capacity
            inflow, outflow, pending = self._inflow, self._outflow, self._pending_inflow
            frontier = self._frontier
            for origin, destination, start_slot, end_slot in slots:
                if start_slot > frontier:
                    self.advance_to(start_slot)
                    frontier = start_slot
                if start_slot <= frontier - capacity:
                    dropped += 1
                    continue
                outflow[start_slot % capacity].events.append(origin * n + destination)
                if start_slot < frontier:
                    # A late checkout changed an already-closed slot: any
                    # forecast computed from the old windows is stale.
                    self.version += 1
                # The return, as the batch builder counts it: none before
                # slot 0, pending past the frontier, none behind the
                # horizon (unreadable, matches eviction).
                if end_slot > frontier:
                    pending.setdefault(end_slot, []).append(destination * n + origin)
                elif end_slot >= 0 and end_slot > frontier - capacity:
                    inflow[end_slot % capacity].events.append(destination * n + origin)
                    if end_slot < frontier:
                        self.version += 1
                applied += 1
        finally:
            if applied:
                self._events_counter.inc(applied)
            if dropped:
                self._late_dropped_counter.inc(dropped)
            self._lock.release()
        return applied

    # ------------------------------------------------------------------
    # Rollover
    # ------------------------------------------------------------------
    def advance_to(self, slot: int) -> None:
        """Move the frontier to ``slot``, finalizing every slot passed.

        Each newly opened slot starts empty (the ring row it claims
        belonged to the slot one full horizon earlier) apart from the
        pending inflow of trips already known to end in it.
        """
        with self._lock:
            if slot < self._frontier:
                raise ValueError(
                    f"cannot advance backwards: frontier={self._frontier}, got {slot}"
                )
            if slot == self._frontier:
                return
            fault_point("state.rollover")
            gap = slot - self._frontier
            # When the gap spans the whole ring every row is evicted.
            fresh = range(max(self._frontier + 1, slot - self._capacity + 1), slot + 1)
            for s in fresh:
                row = s % self._capacity
                self._inflow[row] = _SlotEntries(self._pending_inflow.pop(s, None))
                self._outflow[row] = _SlotEntries()
            # Pending inflow for slots the frontier jumped clean over
            # (possible when gap >= capacity) is now behind the horizon.
            for s in [s for s in self._pending_inflow if s <= slot - self._capacity]:
                del self._pending_inflow[s]
            old_frontier = self._frontier
            # Fold the slots that just closed into canonical form once,
            # here, so sample() on the serving path only stacks them.
            for s in range(max(old_frontier, slot - self._capacity + 1), slot):
                self._inflow[s % self._capacity].entries()
                self._outflow[s % self._capacity].entries()
            self._frontier = slot
            self.version += 1
            self._rollover_counter.inc(gap)
            self._frontier_gauge.set(slot)
            if self._listeners:
                # Still under the (reentrant) lock: listeners may call
                # realized()/sample() but must not block on other locks
                # held by ingest threads.
                closed = range(old_frontier, slot)
                for listener in self._listeners:
                    listener(self, closed)

    def add_rollover_listener(self, listener) -> None:
        """Register ``fn(store, closed_slots)`` to run after each advance.

        ``closed_slots`` is the ``range`` of slots finalized by that
        advance (old frontier inclusive, new frontier exclusive). The
        quality monitor uses this to reconcile forecasts the moment
        their target slot's realized flows are complete.
        """
        with self._lock:
            self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def realized(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Realized per-station ``(demand, supply)`` for a retained slot.

        Demand is the station's total outflow, supply its total inflow —
        the row sums :meth:`repro.data.window.FlowSlots.row_sums` gives a
        dataset's ``demand``/``supply``, so reconciliation compares
        forecasts against exactly what the offline evaluation would. Raises
        :class:`IndexError` once the slot has been evicted from the ring.
        """
        slot = int(slot)
        with self._lock:
            if not self.oldest_retained <= slot <= self._frontier:
                raise IndexError(
                    f"slot {slot} is not retained "
                    f"({self.oldest_retained}..{self._frontier})"
                )
            row = slot % self._capacity
            n = self.config.num_stations
            rows = []
            for ring in (self._outflow, self._inflow):
                index, count = ring[row].entries()
                rows.append(np.bincount(index // n, weights=count, minlength=n))
            return rows[0], rows[1]

    def _entries(self, ring: list[_SlotEntries], slots: range) -> list:
        """Canonical ``(index, count)`` of each of ``slots``, in order."""
        cap = self._capacity
        return [ring[s % cap].entries() for s in slots]

    def sample(self) -> FlowSample:
        """The model input for predicting the current frontier slot.

        Windows are fresh read-only :class:`FlowWindow`\\ s, stacked from
        the ring's canonical slots in exactly the order
        :meth:`repro.data.dataset.BikeShareDataset.sample` uses: short
        window oldest-first over ``[t-k, t)``, long window oldest-first
        over the same slot-of-day of the previous ``d`` days. For the
        same slots the arrays equal the dataset's entry for entry.
        Target fields are zeros — the future is what the model is being
        asked for.
        """
        config = self.config
        with self._lock:
            t = self._frontier
            if t < config.horizon:
                raise IndexError(
                    f"frontier {t} has incomplete history windows "
                    f"(need at least {config.horizon} finalized slots)"
                )
            k, d, spd = config.short_window, config.long_days, config.slots_per_day
            n = config.num_stations
            short_slots = range(t - k, t)
            long_slots = range(t - d * spd, t, spd)

            def window(ring: list[_SlotEntries], slots: range) -> FlowWindow:
                return FlowWindow.from_slots(self._entries(ring, slots), n)

            return FlowSample(
                t=t,
                short_inflow=window(self._inflow, short_slots),
                short_outflow=window(self._outflow, short_slots),
                long_inflow=window(self._inflow, long_slots),
                long_outflow=window(self._outflow, long_slots),
                target_demand=self._zero_target,
                target_supply=self._zero_target,
            )

    def sample_with_version(self) -> tuple[FlowSample, int]:
        """:meth:`sample` and the :attr:`version` its windows reflect,
        read under one lock hold — the identity a forecast cache keys on."""
        with self._lock:
            return self.sample(), self.version

    def retained_flows(self) -> tuple[int, FlowSlots, FlowSlots]:
        """``(first_slot, inflow, outflow)`` canonical slots of every
        retained slot, ``first_slot .. frontier`` inclusive: unlike
        :meth:`history_slots`, the open frontier slot is included."""
        with self._lock:
            first = self.oldest_retained
            return self._flow_slots(range(first, self._frontier + 1))

    def history_slots(
        self, slots: int | None = None, end: int | None = None
    ) -> tuple[int, FlowSlots, FlowSlots]:
        """``(first_slot, inflow, outflow)`` canonical slots of a history range.

        Covers the last ``slots`` *finalized* slots ending at ``end``
        (exclusive; defaults to the frontier, so the open,
        still-accumulating frontier slot is never included), as the same
        :class:`FlowSlots` a :class:`BikeShareDataset` holds for those
        slots — the continual trainer's training window. Raises
        :class:`ValueError` when the requested range reaches behind
        :attr:`oldest_retained` (deepen ``retained_slots`` to keep more).
        """
        with self._lock:
            stop = self._frontier if end is None else int(end)
            if not 0 <= stop <= self._frontier:
                raise ValueError(
                    f"end must be in 0..{self._frontier} (the frontier), got {stop}"
                )
            if slots is None:
                start = min(stop, self.oldest_retained)
            else:
                if slots < 0:
                    raise ValueError(f"slots must be >= 0, got {slots}")
                start = stop - int(slots)
            if start < self.oldest_retained and start < stop:
                raise ValueError(
                    f"history window {start}..{stop} reaches behind the oldest "
                    f"retained slot {self.oldest_retained}; raise "
                    f"FlowStateConfig.retained_slots to keep a deeper history"
                )
            return self._flow_slots(range(start, stop))

    def _flow_slots(self, span: range) -> tuple[int, FlowSlots, FlowSlots]:
        n = self.config.num_stations
        return (
            span.start,
            FlowSlots.from_slots(self._entries(self._inflow, span), n),
            FlowSlots.from_slots(self._entries(self._outflow, span), n),
        )
