"""Incremental flow state for online serving.

The batch pipeline (:func:`repro.data.flows.build_flow_tensors`) folds a
complete trip log into ``(T, n, n)`` inflow/outflow tensors; a serving
process cannot afford that — it sees one trip at a time and must keep
the model's input windows current as the clock rolls over slot
boundaries. :class:`FlowStateStore` is the streaming counterpart: it
ingests individual trip events and maintains exactly the slots that
STGNN-DJD's sampler reads — the short-term window (last ``k`` slots) and
the long-term window (same slot-of-day over the previous ``d`` days) —
in O(1) amortized work per event.

Mechanics
---------
* **Ring buffers** — the store retains the last ``H + 1`` slots where
  ``H = max(k, d * slots_per_day)`` is the deepest lookback any window
  needs; slot ``s`` lives at ring row ``s % (H + 1)``. Advancing the
  frontier one slot zeroes exactly one row (evicting the slot that just
  fell off the horizon), so rollover is O(n^2), independent of history
  length.
* **Per-event accumulation** — a trip increments one cell of the
  outflow matrix at its checkout slot and one cell of the inflow matrix
  at its return slot, the same ``+= 1.0`` the batch builder performs.
* **In-transit inflow** — a trip that ends after the frontier parks its
  inflow contribution in a pending per-slot matrix, folded into the
  ring when the frontier reaches that slot. This mirrors the batch
  semantics where a trip ending beyond the window contributes outflow
  only.
* **Late events** — events landing in a retained slot behind the
  frontier are applied in place (and bump :attr:`FlowStateStore.version`
  so forecast caches invalidate); events older than the retained
  horizon follow ``late_policy``: counted and dropped by default, or a
  hard error for pipelines that consider lateness a bug.

Equivalence guarantee
---------------------
After ingesting a trip log (in any order whose lateness stays within the
horizon) and advancing to slot ``T``, the retained slots are **bitwise
equal** to the corresponding rows of ``build_flow_tensors(trips, n, T,
slot_seconds)``. Both paths accumulate ``+= 1.0`` into float64 zeros;
integer-valued float64 sums are exact far beyond any realistic trip
count, so the accumulation order cannot change a single bit. The
property test in ``tests/serve/test_state_parity.py`` asserts this over
randomized, shuffled, late-heavy event streams.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import BikeShareDataset, FlowSample
from repro.data.records import SECONDS_PER_DAY, TripRecord
from repro.faults import fault_point, fault_transform
from repro.obs.registry import default_registry


@dataclass(frozen=True, slots=True)
class FlowStateConfig:
    """Dimensions and policies of an incremental flow store.

    ``num_stations``, ``slot_seconds``, ``short_window`` (``k``) and
    ``long_days`` (``d``) mirror :class:`repro.data.dataset.FlowDataConfig`;
    ``late_policy`` decides what happens to events older than the
    retained horizon: ``"drop"`` counts and ignores them, ``"error"``
    raises. ``retained_slots`` optionally deepens retention beyond the
    sampling horizon so an online trainer can pull multi-day training
    windows out of the live store (:meth:`FlowStateStore.history_window`)
    — it never shrinks below :attr:`horizon`.
    """

    num_stations: int
    slot_seconds: float = 900.0
    short_window: int = 96
    long_days: int = 7
    late_policy: str = "drop"
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
        if self.late_policy not in ("drop", "error"):
            raise ValueError(
                f"late_policy must be 'drop' or 'error', got {self.late_policy!r}"
            )
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
        late_policy: str = "drop",
        retained_slots: int | None = None,
    ) -> "FlowStateConfig":
        """A config matching a dataset's dimensions and windows."""
        return cls(
            num_stations=dataset.num_stations,
            slot_seconds=dataset.config.slot_seconds,
            short_window=dataset.config.short_window,
            long_days=dataset.config.long_days,
            late_policy=late_policy,
            retained_slots=retained_slots,
        )


class LateEventError(ValueError):
    """An event landed behind the retained horizon under ``late_policy='error'``."""


class FlowStateStore:
    """Rolling inflow/outflow state, updated one trip event at a time.

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
        self._inflow = np.zeros((self._capacity, n, n))
        self._outflow = np.zeros((self._capacity, n, n))
        self._pending_inflow: dict[int, np.ndarray] = {}
        self._frontier = frontier
        self._start_frontier = frontier
        self._warm_started = False
        #: Monotonic counter bumped whenever the windows visible to
        #: ``sample()`` may have changed (rollover or a late event
        #: landing behind the frontier). Forecast caches key on it.
        self.version = 0
        self._lock = threading.RLock()
        # Preallocated window snapshots for sample().
        k, d = config.short_window, config.long_days
        self._short_in = np.empty((k, n, n))
        self._short_out = np.empty((k, n, n))
        self._long_in = np.empty((d, n, n))
        self._long_out = np.empty((d, n, n))
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
        late_policy: str = "drop",
        retained_slots: int | None = None,
    ) -> "FlowStateStore":
        """Warm-start a store from a dataset's materialized flow history.

        ``frontier`` defaults to ``dataset.num_slots`` — the store picks
        up exactly where the offline tensors end, with every retained
        slot already populated, so the first online prediction has full
        windows instead of a zero-padded warm-up.
        """
        config = FlowStateConfig.for_dataset(
            dataset, late_policy=late_policy, retained_slots=retained_slots
        )
        frontier = dataset.num_slots if frontier is None else frontier
        if not 0 <= frontier <= dataset.num_slots:
            raise ValueError(
                f"frontier {frontier} outside the dataset's 0..{dataset.num_slots}"
            )
        store = cls(config, frontier=frontier)
        first = max(0, frontier - config.retention)
        for slot in range(first, frontier):
            row = slot % store._capacity
            store._inflow[row] = dataset.inflow[slot]
            store._outflow[row] = dataset.outflow[slot]
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

        The frontier auto-advances when the event starts in a future
        slot, so a store fed in event-time order needs no external
        clock. Returns ``True`` if the event was applied, ``False`` if
        it was dropped by the late policy.
        """
        # Chaos seams: "state.clock" lets a plan skew this event's
        # timestamps in flight (modelling feed clock drift); the skewed
        # times then flow through the exact same validation and late
        # policy as real ones. "state.ingest" can raise or hang per event.
        fault_point("state.ingest")
        start_time, end_time = fault_transform(
            "state.clock", (start_time, end_time)
        )
        n = self.config.num_stations
        if not (0 <= origin < n and 0 <= destination < n):
            raise ValueError(
                f"station ids must be in 0..{n - 1}, got {origin}->{destination}"
            )
        slot_seconds = self.config.slot_seconds
        start_slot = int(start_time // slot_seconds)
        end_slot = int(end_time // slot_seconds)
        if start_slot < 0:
            raise ValueError(f"event starts before slot 0 (start_time={start_time})")
        with self._lock:
            if start_slot > self._frontier:
                self.advance_to(start_slot)
            if start_slot <= self._frontier - self._capacity:
                if self.config.late_policy == "error":
                    raise LateEventError(
                        f"event starting in slot {start_slot} is behind the "
                        f"retained horizon (oldest retained: "
                        f"{self._frontier - self.config.retention})"
                    )
                self._late_dropped_counter.inc()
                return False
            self._outflow[start_slot % self._capacity][origin, destination] += 1.0
            if start_slot < self._frontier:
                # A late checkout changed an already-closed slot: any
                # forecast computed from the old windows is stale.
                self.version += 1
            self._apply_inflow(destination, origin, end_slot)
            self._events_counter.inc()
            return True

    def _apply_inflow(self, station: int, counterpart: int, end_slot: int) -> None:
        """Credit an inflow at ``end_slot``, wherever that slot lives.

        Matches the batch builder: returns before slot 0 are ignored,
        returns beyond the frontier wait in the pending map, returns
        behind the horizon fall off (they can never be read again).
        """
        if end_slot < 0:
            return
        if end_slot > self._frontier:
            pending = self._pending_inflow.get(end_slot)
            if pending is None:
                n = self.config.num_stations
                pending = np.zeros((n, n))
                self._pending_inflow[end_slot] = pending
            pending[station, counterpart] += 1.0
            return
        if end_slot <= self._frontier - self._capacity:
            return  # behind the horizon: unreadable, matches eviction
        self._inflow[end_slot % self._capacity][station, counterpart] += 1.0
        if end_slot < self._frontier:
            self.version += 1

    # ------------------------------------------------------------------
    # Rollover
    # ------------------------------------------------------------------
    def advance_to(self, slot: int) -> None:
        """Move the frontier to ``slot``, finalizing every slot passed.

        Each newly opened slot starts from zeros (the ring row it
        claims belonged to the slot one full horizon earlier) plus any
        pending inflow from trips already known to end in it.
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
            if gap >= self._capacity:
                # The entire ring is evicted; skip per-slot zeroing.
                self._inflow[:] = 0.0
                self._outflow[:] = 0.0
                fresh = range(slot - self._capacity + 1, slot + 1)
            else:
                fresh = range(self._frontier + 1, slot + 1)
                for s in fresh:
                    row = s % self._capacity
                    self._inflow[row] = 0.0
                    self._outflow[row] = 0.0
            for s in fresh:
                pending = self._pending_inflow.pop(s, None)
                if pending is not None:
                    self._inflow[s % self._capacity] += pending
            # Pending inflow for slots the frontier jumped clean over
            # (possible when gap >= capacity) is now behind the horizon.
            for s in [s for s in self._pending_inflow if s <= slot - self._capacity]:
                del self._pending_inflow[s]
            old_frontier = self._frontier
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
        the same row sums :func:`repro.data.flows.demand_supply` takes,
        so reconciliation compares forecasts against exactly what the
        offline evaluation would. Raises :class:`IndexError` once the
        slot has been evicted from the ring.
        """
        slot = int(slot)
        with self._lock:
            if not self.oldest_retained <= slot <= self._frontier:
                raise IndexError(
                    f"slot {slot} is not retained "
                    f"({self.oldest_retained}..{self._frontier})"
                )
            row = slot % self._capacity
            return (
                self._outflow[row].sum(axis=1),
                self._inflow[row].sum(axis=1),
            )

    def _gather(self, ring: np.ndarray, slots: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.take(ring, slots % self._capacity, axis=0, out=out)
        return out

    def sample(self) -> FlowSample:
        """The model input for predicting the current frontier slot.

        Windows are copies into buffers owned by the store (stable until
        the next ``sample()`` call), ordered exactly as
        :meth:`repro.data.dataset.BikeShareDataset.sample` orders them:
        short window oldest-first over ``[t-k, t)``, long window
        oldest-first over the same slot-of-day of the previous ``d``
        days. Target fields are zeros — the future is what the model is
        being asked for.
        """
        config = self.config
        t = self._frontier
        if t < config.horizon:
            raise IndexError(
                f"frontier {t} has incomplete history windows "
                f"(need at least {config.horizon} finalized slots)"
            )
        with self._lock:
            k, d, spd = config.short_window, config.long_days, config.slots_per_day
            short_slots = np.arange(t - k, t)
            long_slots = np.arange(t - d * spd, t, spd)
            return FlowSample(
                t=t,
                short_inflow=self._gather(self._inflow, short_slots, self._short_in),
                short_outflow=self._gather(self._outflow, short_slots, self._short_out),
                long_inflow=self._gather(self._inflow, long_slots, self._long_in),
                long_outflow=self._gather(self._outflow, long_slots, self._long_out),
                target_demand=self._zero_target,
                target_supply=self._zero_target,
            )

    def retained_tensors(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(first_slot, inflow, outflow)`` for every retained slot.

        The arrays are ``(m, n, n)`` contiguous copies covering slots
        ``first_slot .. frontier`` inclusive — the view the parity tests
        compare bitwise against ``build_flow_tensors``.
        """
        with self._lock:
            first = self.oldest_retained
            slots = np.arange(first, self._frontier + 1)
            rows = slots % self._capacity
            return first, self._inflow[rows].copy(), self._outflow[rows].copy()

    def history_window(
        self, slots: int | None = None, end: int | None = None
    ) -> tuple[int, np.ndarray, np.ndarray]:
        """Training-ready ``(first_slot, inflow, outflow)`` flow tensors.

        Returns contiguous copies of the last ``slots`` *finalized*
        slots ending at ``end`` (exclusive; defaults to the frontier, so
        the open, still-accumulating frontier row is never included).
        Rows are bitwise equal to the corresponding rows of
        :func:`repro.data.flows.build_flow_tensors` over the same event
        log — both paths accumulate integer-valued ``+= 1.0`` into
        float64 zeros, so the continual trainer retrains on exactly the
        tensors the offline pipeline would have built. Raises
        :class:`ValueError` when the requested range reaches behind
        :attr:`oldest_retained` (deepen ``retained_slots`` to keep
        more).
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
            slot_ids = np.arange(start, stop)
            rows = slot_ids % self._capacity
            return start, self._inflow[rows].copy(), self._outflow[rows].copy()
