"""Dense flow oracle: the literal per-trip loop the sparse paths must match.

The library builds flows only as canonical per-slot COO entries
(:func:`repro.data.flows.build_flow_slots`). This module keeps the
paper's bookkeeping in its most literal form — one ``+= 1.0`` per trip
into dense ``(T, n, n)`` tensors — so the builder and the store-parity
suites can compare against something that is obviously right.
"""

from __future__ import annotations

import numpy as np

from repro.data.records import TripRecord


def build_flow_tensors(
    trips: list[TripRecord],
    num_stations: int,
    num_slots: int,
    slot_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate trips into ``(T, n, n)`` inflow and outflow tensors.

    Trips whose checkout slot falls outside ``0..num_slots-1`` are
    rejected (they indicate a mis-sized window); trips that *end* after
    the window contribute to outflow only, mirroring a live system where
    the bike is still in transit at the horizon.
    """
    if num_stations <= 0 or num_slots <= 0:
        raise ValueError("num_stations and num_slots must be positive")
    if slot_seconds <= 0:
        raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")

    inflow = np.zeros((num_slots, num_stations, num_stations))
    outflow = np.zeros((num_slots, num_stations, num_stations))
    for trip in trips:
        start_slot = trip.start_slot(slot_seconds)
        end_slot = trip.end_slot(slot_seconds)
        if not 0 <= start_slot < num_slots:
            raise ValueError(
                f"trip {trip.trip_id} starts in slot {start_slot}, "
                f"outside the window of {num_slots} slots"
            )
        outflow[start_slot, trip.origin, trip.destination] += 1.0
        if 0 <= end_slot < num_slots:
            inflow[end_slot, trip.destination, trip.origin] += 1.0
    return inflow, outflow


def history_window(store, slots=None, end=None) -> tuple[int, np.ndarray, np.ndarray]:
    """A store's :meth:`history_slots`, densified to ``(m, n, n)``."""
    first, inflow, outflow = store.history_slots(slots=slots, end=end)
    return first, inflow.dense(), outflow.dense()


def retained_tensors(store) -> tuple[int, np.ndarray, np.ndarray]:
    """A store's :meth:`retained_flows`, densified to ``(m, n, n)``."""
    first, inflow, outflow = store.retained_flows()
    return first, inflow.dense(), outflow.dense()
