"""Bike-share data substrate: records, stations, cleaning, flows, datasets.

The full pipeline is ``trips → clean_trips → build_flow_slots →
BikeShareDataset``. Flows stay canonical per-slot COO entries
(:class:`FlowSlots`) all the way; no stage builds a dense ``(T, n, n)``
tensor. :func:`generate_city` runs the pipeline end-to-end from the
synthetic city model that substitutes for the paper's Divvy/Metro data.
"""

from repro.data.records import MAX_TRIP_SECONDS, SECONDS_PER_DAY, TripRecord
from repro.data.stations import EARTH_RADIUS_KM, Station, StationRegistry, haversine_km
from repro.data.cleaning import CleaningReport, clean_trips
from repro.data.flows import build_flow_slots
from repro.data.normalize import MinMaxNormalizer
from repro.data.window import FlowSlots, FlowWindow, canonical_entries
from repro.data.dataset import BikeShareDataset, FlowDataConfig, FlowSample
from repro.data.synthetic import (
    HOME,
    SCHOOL,
    WORK,
    SyntheticCity,
    SyntheticCityConfig,
    build_city,
    generate_city,
    generate_trips,
    intensity_tensor,
)
from repro.data.io import (
    read_stations_csv,
    read_trips_csv,
    write_stations_csv,
    write_trips_csv,
)
from repro.data.real import RealImport, detect_layout, read_real_trips, window_days

__all__ = [
    "TripRecord",
    "SECONDS_PER_DAY",
    "MAX_TRIP_SECONDS",
    "Station",
    "StationRegistry",
    "haversine_km",
    "EARTH_RADIUS_KM",
    "CleaningReport",
    "clean_trips",
    "build_flow_slots",
    "MinMaxNormalizer",
    "BikeShareDataset",
    "FlowDataConfig",
    "FlowSample",
    "FlowSlots",
    "FlowWindow",
    "canonical_entries",
    "SyntheticCityConfig",
    "SyntheticCity",
    "build_city",
    "generate_city",
    "generate_trips",
    "intensity_tensor",
    "HOME",
    "WORK",
    "SCHOOL",
    "read_trips_csv",
    "write_trips_csv",
    "read_stations_csv",
    "write_stations_csv",
    "RealImport",
    "detect_layout",
    "read_real_trips",
    "window_days",
]
