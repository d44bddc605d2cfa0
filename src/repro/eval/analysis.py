"""Exploratory analysis of bike-share datasets.

Operator-facing summaries a deployment would want next to the model:
station activity ranking, temporal demand profiles, OD concentration,
and station imbalance (net outflow) — the quantity rebalancing crews
act on. All pure-numpy over a :class:`~repro.data.BikeShareDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import BikeShareDataset


@dataclass(frozen=True, slots=True)
class StationSummary:
    """Activity summary of one station over the dataset window."""

    station_id: int
    name: str
    total_demand: float
    total_supply: float
    peak_demand_slot: int  # slot-of-day with the highest mean demand
    net_outflow: float  # demand - supply (positive: bleeds bikes)


def station_summaries(dataset: BikeShareDataset) -> list[StationSummary]:
    """Per-station activity summaries, sorted by total demand (desc)."""
    profile = daily_profile(dataset)  # (spd, n)
    summaries = []
    for station in range(dataset.num_stations):
        total_demand = float(dataset.demand[:, station].sum())
        total_supply = float(dataset.supply[:, station].sum())
        summaries.append(
            StationSummary(
                station_id=station,
                name=dataset.registry[station].name,
                total_demand=total_demand,
                total_supply=total_supply,
                peak_demand_slot=int(profile[:, station].argmax()),
                net_outflow=total_demand - total_supply,
            )
        )
    return sorted(summaries, key=lambda s: -s.total_demand)


def daily_profile(dataset: BikeShareDataset) -> np.ndarray:
    """Mean demand per (slot-of-day, station), shape ``(spd, n)``."""
    spd = dataset.slots_per_day
    return dataset.demand.reshape(dataset.num_days, spd, -1).mean(axis=0)


def od_matrix(dataset: BikeShareDataset) -> np.ndarray:
    """Total origin-destination trip counts over the window, ``(n, n)``."""
    return dataset.outflow_slots.window(0, dataset.num_slots).total()


def od_concentration(dataset: BikeShareDataset, top_fraction: float = 0.1) -> float:
    """Share of all trips carried by the busiest ``top_fraction`` of OD pairs.

    Bike-share demand is heavy-tailed; values well above
    ``top_fraction`` confirm the generator (or real data) reproduces
    that concentration.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    flows = np.sort(od_matrix(dataset).reshape(-1))[::-1]
    total = flows.sum()
    if total == 0:
        return 0.0
    keep = max(1, int(len(flows) * top_fraction))
    return float(flows[:keep].sum() / total)


def imbalance_by_slot(dataset: BikeShareDataset) -> np.ndarray:
    """Mean net outflow (demand - supply) per (slot-of-day, station).

    Positive entries are windows where a station structurally loses
    bikes — where an operator schedules replenishment.
    """
    spd = dataset.slots_per_day
    net = dataset.demand - dataset.supply
    return net.reshape(dataset.num_days, spd, -1).mean(axis=0)


def busiest_hours(dataset: BikeShareDataset, count: int = 3) -> list[int]:
    """Slot-of-day indices with the highest citywide mean demand."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    citywide = daily_profile(dataset).sum(axis=1)
    order = np.argsort(-citywide, kind="stable")
    return [int(i) for i in order[:count]]
