"""Building inflow/outflow slots from trip records (paper Sec. III-A).

For a window of ``T`` slots and ``n`` stations the paper's flow matrices
are:

* ``O^t[i, j]`` (outflow) — bikes checked out from station ``i`` during
  slot ``t`` and (eventually) returned to station ``j``; ``t`` is the
  *checkout* slot.
* ``I^t[i, j]`` (inflow) — bikes returned to station ``i`` during slot
  ``t`` that had been borrowed from station ``j``; ``t`` is the *return*
  slot.

So a trip ``i --(t_s .. t_e)--> j`` adds one to ``O^{slot(t_s)}[i, j]``
and one to ``I^{slot(t_e)}[j, i]``. These matrices are almost all zeros,
so they are built straight into canonical per-slot COO entries
(:class:`repro.data.window.FlowSlots`); no dense ``(T, n, n)`` tensor is
ever materialized. Demand ``x^t_i = sum_j O^t[i, j]`` and supply
``y^t_i = sum_j I^t[i, j]`` are their :meth:`FlowSlots.row_sums`.
"""

from __future__ import annotations

import numpy as np

from repro.data.records import TripRecord
from repro.data.window import FlowSlots


def build_flow_slots(
    trips: list[TripRecord],
    num_stations: int,
    num_slots: int,
    slot_seconds: float,
) -> tuple[FlowSlots, FlowSlots]:
    """Aggregate trips into canonical ``(inflow, outflow)`` slots.

    Trips whose checkout slot falls outside ``0..num_slots-1`` are
    rejected (they indicate a mis-sized window), as are station ids
    outside ``0..num_stations-1``; trips that *end* after the window
    contribute to outflow only, mirroring a live system where the bike
    is still in transit at the horizon.
    """
    if num_stations <= 0 or num_slots <= 0:
        raise ValueError("num_stations and num_slots must be positive")
    if slot_seconds <= 0:
        raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")

    n = num_stations
    origin, destination = np.array(
        [(trip.origin, trip.destination) for trip in trips], dtype=np.int64
    ).reshape(-1, 2).T
    start, end = np.floor_divide(
        np.array([(trip.start_time, trip.end_time) for trip in trips]).reshape(-1, 2),
        slot_seconds,
    ).astype(np.int64).T
    checks = {
        f"has a station id outside 0..{n - 1}": (
            (np.minimum(origin, destination) < 0)
            | (np.maximum(origin, destination) >= n)
        ),
        f"starts outside the window of {num_slots} slots": (
            (start < 0) | (start >= num_slots)
        ),
    }
    for problem, bad in checks.items():
        if bad.any():
            raise ValueError(f"trip {trips[int(bad.argmax())].trip_id} {problem}")
    returned = (end >= 0) & (end < num_slots)
    inflow = end * n * n + destination * n + origin
    outflow = start * n * n + origin * n + destination
    return (
        FlowSlots.from_keys(inflow[returned], num_slots, n),
        FlowSlots.from_keys(outflow, num_slots, n),
    )
