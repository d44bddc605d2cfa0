"""Synthetic bike-share city generator.

The paper evaluates on proprietary exports of the Divvy (Chicago) and
Metro (Los Angeles) systems, which are unreachable offline. This module
generates trip data with the statistical structure those datasets exhibit
and that STGNN-DJD's design exploits:

* **Commuter structure** — stations belong to *home*, *work* or *school*
  zones; home→work flow peaks in the morning rush (07-10), work→home in
  the evening rush (17-20), matching the paper's rush-hour experiments.
* **Daily and weekly periodicity** — slot-of-day profiles repeat each
  day (the long-term dependency the flow convolution targets) and
  weekends are flattened (day-of-week signal).
* **Distance decay with exceptions** — trip affinity follows a gravity
  kernel, *except* for designated "school twin" station pairs that are
  geographically distant yet share demand-supply patterns (the paper's
  two-schools example motivating the pattern correlation graph and the
  Sec. VIII locality case study).
* **Noise** — Poisson trip counts, lognormal travel-time jitter, and an
  optional fraction of dirty records (negative durations, >24h trips,
  unknown stations) to exercise the cleaning path.

Presets come in four size tiers — ``tiny`` / ``la_like`` /
``chicago_like`` / ``chicago_571`` — documented in one place on
:class:`SyntheticCityConfig`. ``chicago_like`` vs ``la_like`` mirrors
the paper's *traffic-density* contrast at test-friendly station counts;
``chicago_571`` is the paper-scale tier (571 stations at the real Divvy
trip rate) that ``benchmarks/bench_scale.py`` measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.cleaning import clean_trips
from repro.data.dataset import BikeShareDataset, FlowDataConfig
from repro.data.flows import build_flow_slots
from repro.data.records import SECONDS_PER_DAY, TripRecord
from repro.data.stations import Station, StationRegistry

# Station functional types.
HOME, WORK, SCHOOL = 0, 1, 2

_TYPE_NAMES = {HOME: "home", WORK: "work", SCHOOL: "school"}


@dataclass(frozen=True, slots=True)
class SyntheticCityConfig:
    """Parameters of the generative city model.

    Size tiers — the canonical reference for every preset.
    ``trips_per_day`` always scales as ``rate x num_stations``:

    ============== ======== ================= ==================================
    preset         stations trips/station/day role
    ============== ======== ================= ==================================
    tiny                  8                40 unit tests (hourly slots, 2-day
                                              long window)
    la_like              16                60 Metro-style: small & sparse traffic
    chicago_like         40               300 Divvy-style *traffic density* at a
                                              test-friendly station count
    chicago_571         571                30 paper scale: the real Divvy station
                                              count at the real per-station rate
                                              (3.15M trips / 184 d / 571 ≈ 30)
    ============== ======== ================= ==================================

    ``chicago_like``'s 300 trips/station/day is a deliberately heavy
    rate so density effects show at 40 stations; ``chicago_571`` uses
    the measured real-system rate because at 571 stations the station
    count itself supplies the load.

    Attributes
    ----------
    name:
        Dataset label (appears in experiment printouts).
    num_stations:
        Total stations; work stations cluster downtown, home stations
        ring the periphery, school pairs sit on opposite sides.
    days:
        Length of the observation window in days.
    trips_per_day:
        Expected (Poisson mean) total trips per weekday.
    slot_seconds:
        Slot duration for the derived dataset (900 s in the paper).
    short_window / long_days:
        ``k`` and ``d`` for the derived :class:`FlowDataConfig`.
    school_pairs:
        Number of distant station pairs sharing a school-like profile.
    weekend_factor:
        Multiplier on weekday intensity applied on days 5 and 6 of each
        week (flattened, non-commuter traffic).
    dirty_fraction:
        Fraction of additional corrupt trip records injected, to
        exercise the cleaning rules.
    bike_speed_kmh:
        Mean riding speed used to derive travel (and hence inflow lag)
        times from inter-station distance.
    day_factor_sigma:
        Scale of day-to-day demand shocks (weather, events): each day's
        intensity is multiplied by a lognormal AR(1) factor. Real
        systems have strong day effects, and they are what make the
        *recent flow window* informative beyond pure periodicity —
        without them, the optimal predictor degenerates to a per-slot
        historical average. 0 disables.
    day_factor_rho:
        AR(1) correlation of consecutive day factors.
    slot_factor_sigma / slot_factor_rho:
        Scale and AR(1) correlation of slot-level citywide intensity
        shocks (weather evolving through the day). These make the very
        recent flow window predictive of the next slot — the short-term
        dependency the paper's flow convolution targets.
    station_drift_sigma / station_drift_rho:
        Per-station popularity drift: each station's attractiveness
        follows its own lognormal AR(1) across days. This is the
        *dynamic dependency* the paper is about — station relationships
        measured on the training period go stale, so methods relying on
        statically precomputed correlation/interaction graphs degrade
        while per-slot graph regeneration keeps up. 0 disables.
    """

    name: str = "synthetic"
    num_stations: int = 20
    days: int = 14
    trips_per_day: float = 2000.0
    slot_seconds: float = 900.0
    short_window: int = 96
    long_days: int = 7
    school_pairs: int = 1
    weekend_factor: float = 0.55
    dirty_fraction: float = 0.0
    bike_speed_kmh: float = 12.0
    popularity_sigma: float = 0.35  # lognormal spread of station popularity
    day_factor_sigma: float = 0.25
    day_factor_rho: float = 0.6
    slot_factor_sigma: float = 0.15
    slot_factor_rho: float = 0.9
    station_drift_sigma: float = 0.0
    station_drift_rho: float = 0.8
    center_lon: float = -87.63
    center_lat: float = 41.88
    city_radius_km: float = 6.0

    def __post_init__(self) -> None:
        if self.num_stations < 4:
            raise ValueError("need at least 4 stations for a meaningful city")
        if self.days < 2:
            raise ValueError("need at least 2 days of data")
        if self.trips_per_day <= 0:
            raise ValueError("trips_per_day must be positive")
        if self.school_pairs < 0 or 2 * self.school_pairs > self.num_stations // 2:
            raise ValueError("too many school pairs for the station count")
        if not 0.0 <= self.dirty_fraction < 1.0:
            raise ValueError("dirty_fraction must be in [0, 1)")
        if SECONDS_PER_DAY % self.slot_seconds != 0:
            raise ValueError("slot_seconds must divide a day evenly")

    @property
    def slots_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.slot_seconds)

    @classmethod
    def chicago_like(cls, days: int = 21, num_stations: int = 40) -> "SyntheticCityConfig":
        """Divvy-style *traffic density* (300 trips/station/day) at a
        test-friendly 40 stations — not the paper's station count; use
        :meth:`chicago_571` for the real 571-station scale."""
        return cls(
            name="chicago-like",
            num_stations=num_stations,
            days=days,
            trips_per_day=300.0 * num_stations,
            school_pairs=2,
            center_lon=-87.63,
            center_lat=41.88,
            city_radius_km=8.0,
        )

    @classmethod
    def la_like(cls, days: int = 21, num_stations: int = 16) -> "SyntheticCityConfig":
        """Small network, sparse traffic — the Metro-style preset."""
        return cls(
            name="la-like",
            num_stations=num_stations,
            days=days,
            trips_per_day=60.0 * num_stations,
            school_pairs=1,
            center_lon=-118.24,
            center_lat=34.05,
            city_radius_km=5.0,
        )

    @classmethod
    def chicago_571(cls, days: int = 10) -> "SyntheticCityConfig":
        """Paper-scale Divvy: 571 stations at the real per-station rate.

        571 stations and ~30 trips/station/day match the paper's Chicago
        export (3.15M trips / 184 days / 571 stations ≈ 30). Thirty-minute
        slots with a one-day short window (k=48) and a 3-day long window
        keep one training epoch tractable on a single core while the
        (slots, n, n) flow tensors stay the dominant memory term; trip
        generation is day-chunked (see :func:`generate_trips`) so the
        intensity model never materialises the full window at once.
        """
        return cls(
            name="chicago-571",
            num_stations=571,
            days=days,
            trips_per_day=30.0 * 571,
            slot_seconds=1800.0,
            short_window=48,
            long_days=3,
            school_pairs=4,
            center_lon=-87.63,
            center_lat=41.88,
            city_radius_km=10.0,
        )

    @classmethod
    def tiny(cls, days: int = 10, num_stations: int = 8) -> "SyntheticCityConfig":
        """Minimal city with hourly slots, for fast unit tests."""
        return cls(
            name="tiny",
            num_stations=num_stations,
            days=days,
            trips_per_day=40.0 * num_stations,
            slot_seconds=3600.0,
            short_window=24,
            long_days=2,
            school_pairs=1,
        )


@dataclass(frozen=True, slots=True)
class SyntheticCity:
    """The latent city: stations, types, and the trip-intensity model."""

    config: SyntheticCityConfig
    registry: StationRegistry
    station_types: np.ndarray  # (n,) in {HOME, WORK, SCHOOL}
    school_pair_ids: list[tuple[int, int]]
    base_affinity: np.ndarray  # (n, n) time-free OD affinity
    weekday_profiles: np.ndarray  # (3, 3, slots_per_day) type->type intensity
    weekend_profile: np.ndarray  # (slots_per_day,)
    slot_factors: np.ndarray  # (days * slots_per_day,) citywide shocks
    station_day_factors: np.ndarray  # (days, n) per-station popularity drift


def _km_to_lonlat(dx_km: float, dy_km: float, lat: float) -> tuple[float, float]:
    """Convert a local east/north displacement in km to lon/lat deltas."""
    dlat = dy_km / 110.574
    dlon = dx_km / (111.320 * math.cos(math.radians(lat)))
    return dlon, dlat


def _place_stations(config: SyntheticCityConfig, rng: np.random.Generator):
    """Lay out stations: work core, home ring, distant school pairs."""
    n = config.num_stations
    n_school = 2 * config.school_pairs
    n_work = max(2, (n - n_school) // 3)
    n_home = n - n_school - n_work

    positions = []  # (dx_km, dy_km)
    types = []
    # Work stations: tight downtown cluster.
    for _ in range(n_work):
        radius = abs(rng.normal(0.0, config.city_radius_km * 0.15))
        angle = rng.uniform(0, 2 * math.pi)
        positions.append((radius * math.cos(angle), radius * math.sin(angle)))
        types.append(WORK)
    # Home stations: ring around the core.
    for _ in range(n_home):
        radius = rng.uniform(config.city_radius_km * 0.45, config.city_radius_km)
        angle = rng.uniform(0, 2 * math.pi)
        positions.append((radius * math.cos(angle), radius * math.sin(angle)))
        types.append(HOME)
    # School pairs: placed on opposite edges so each pair is distant yet
    # pattern-correlated — the configuration the PCG is built to catch.
    school_pair_ids: list[tuple[int, int]] = []
    for pair in range(config.school_pairs):
        angle = rng.uniform(0, 2 * math.pi)
        radius = config.city_radius_km * 0.9
        first = (radius * math.cos(angle), radius * math.sin(angle))
        second = (-first[0], -first[1])
        idx = len(positions)
        positions.extend([first, second])
        types.extend([SCHOOL, SCHOOL])
        school_pair_ids.append((idx, idx + 1))

    stations = []
    for station_id, ((dx, dy), stype) in enumerate(zip(positions, types)):
        dlon, dlat = _km_to_lonlat(dx, dy, config.center_lat)
        stations.append(
            Station(
                station_id,
                config.center_lon + dlon,
                config.center_lat + dlat,
                name=f"{_TYPE_NAMES[stype]}-{station_id}",
            )
        )
    return StationRegistry(stations), np.array(types), school_pair_ids


def _time_profiles(slots_per_day: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot-of-day intensity profiles per (origin type, destination type).

    Built from Gaussian bumps at the morning (08:30) and evening (17:30)
    rush peaks plus a flat base — home→work rides dominate mornings,
    work→home evenings, school traffic has its own bell-schedule bumps.
    """
    hours = (np.arange(slots_per_day) + 0.5) * (24.0 / slots_per_day)

    def bump(center: float, width: float) -> np.ndarray:
        return np.exp(-0.5 * ((hours - center) / width) ** 2)

    base = 0.15 + 0.1 * bump(13.0, 3.0)  # light midday activity
    morning = bump(8.5, 1.1)
    evening = bump(17.5, 1.2)
    school_in = bump(8.0, 0.8)
    school_out = bump(15.5, 1.0)

    profiles = np.zeros((3, 3, slots_per_day))
    profiles[HOME, WORK] = base + 3.0 * morning + 0.3 * evening
    profiles[WORK, HOME] = base + 0.3 * morning + 3.0 * evening
    profiles[HOME, HOME] = base + 0.4 * bump(11.0, 3.0)
    profiles[WORK, WORK] = base + 0.8 * bump(12.5, 1.5)  # lunch rides
    profiles[HOME, SCHOOL] = base + 2.5 * school_in
    profiles[SCHOOL, HOME] = base + 2.5 * school_out
    profiles[WORK, SCHOOL] = base * 0.5 + 0.8 * school_out  # pickups
    profiles[SCHOOL, WORK] = base * 0.5 + 0.8 * school_in
    profiles[SCHOOL, SCHOOL] = base * 0.5

    weekend = 0.25 + 0.5 * bump(14.0, 4.0)  # flat leisure curve
    return profiles, weekend


def build_city(config: SyntheticCityConfig, seed: int = 0) -> SyntheticCity:
    """Construct the latent city model (stations + intensity surfaces)."""
    rng = np.random.default_rng(seed)
    registry, types, school_pairs = _place_stations(config, rng)
    distances = registry.distance_matrix()

    # Gravity affinity with distance decay; people rarely ride between
    # adjacent stations (walking wins), hence the short-range suppression.
    popularity = rng.lognormal(
        mean=0.0, sigma=config.popularity_sigma, size=config.num_stations
    )
    decay_scale = config.city_radius_km * 0.6
    affinity = np.outer(popularity, popularity) * np.exp(-distances / decay_scale)
    affinity *= 1.0 - np.exp(-((distances / 0.5) ** 2))  # suppress <~0.5 km hops
    np.fill_diagonal(affinity, 0.0)

    profiles, weekend = _time_profiles(config.slots_per_day)
    return SyntheticCity(
        config=config,
        registry=registry,
        station_types=types,
        school_pair_ids=school_pairs,
        base_affinity=affinity,
        weekday_profiles=profiles,
        weekend_profile=weekend,
        slot_factors=_citywide_factors(config, rng),
        station_day_factors=_station_drift(config, rng),
    )


def _station_drift(config: SyntheticCityConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-station daily popularity factors, lognormal AR(1) across days."""
    sigma, rho = config.station_drift_sigma, config.station_drift_rho
    n = config.num_stations
    if sigma == 0.0:
        return np.ones((config.days, n))
    log_f = np.zeros((config.days, n))
    log_f[0] = sigma * rng.normal(size=n)
    innovation = sigma * np.sqrt(max(1.0 - rho**2, 0.0))
    for day in range(1, config.days):
        log_f[day] = rho * log_f[day - 1] + innovation * rng.normal(size=n)
    return np.exp(log_f - sigma**2 / 2.0)


def _citywide_factors(config: SyntheticCityConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-slot intensity multipliers: day-level AR(1) x slot-level AR(1).

    Both processes are lognormal with mean 1 (the -sigma^2/2 drift), so
    they perturb intensity without changing the expected total.
    """
    spd = config.slots_per_day
    total = config.days * spd

    day_log = np.zeros(config.days)
    sigma_d, rho_d = config.day_factor_sigma, config.day_factor_rho
    innovation_scale = sigma_d * np.sqrt(max(1.0 - rho_d**2, 0.0))
    for day in range(1, config.days):
        day_log[day] = rho_d * day_log[day - 1] + innovation_scale * rng.normal()
    if sigma_d > 0:
        day_log[0] = sigma_d * rng.normal()

    slot_log = np.zeros(total)
    sigma_s, rho_s = config.slot_factor_sigma, config.slot_factor_rho
    slot_scale = sigma_s * np.sqrt(max(1.0 - rho_s**2, 0.0))
    for t in range(1, total):
        slot_log[t] = rho_s * slot_log[t - 1] + slot_scale * rng.normal()

    combined = np.exp(
        day_log.repeat(spd) - sigma_d**2 / 2.0 + slot_log - sigma_s**2 / 2.0
    )
    return combined


def _base_day_intensities(city: SyntheticCity) -> tuple[np.ndarray, np.ndarray]:
    """Normalised weekday/weekend ``(n, n, spd)`` intensity surfaces.

    Normalised so a weekday totals ``config.trips_per_day`` expected
    trips; weekend days are scaled by ``weekend_factor``.
    """
    config = city.config
    types = city.station_types

    # Per-slot type->type profile expanded to station pairs.
    weekday = city.weekday_profiles[types[:, None], types[None, :], :]  # (n, n, spd)
    weekday = weekday * city.base_affinity[:, :, None]
    weekday_total = weekday.sum()
    if weekday_total <= 0:
        raise RuntimeError("degenerate city: zero total intensity")
    weekday *= config.trips_per_day / weekday_total

    weekend = city.base_affinity[:, :, None] * city.weekend_profile[None, None, :]
    weekend *= config.trips_per_day * config.weekend_factor / weekend.sum()
    return weekday, weekend


def day_intensity(
    city: SyntheticCity, day: int, weekday: np.ndarray, weekend: np.ndarray
) -> np.ndarray:
    """One day's expected trips ``(spd, n, n)``, all shock factors applied.

    Elementwise identical to the matching block of
    :func:`intensity_tensor`, so per-day consumers (chunked trip
    generation) see bit-for-bit the values of the full tensor.
    """
    config = city.config
    spd = config.slots_per_day
    day_lam = weekend if day % 7 >= 5 else weekday
    # Per-station popularity drift: origin and destination factors.
    drift = city.station_day_factors[day]
    day_lam = day_lam * drift[:, None, None] * drift[None, :, None]
    # Citywide day-level and slot-level shocks (weather, events).
    return np.moveaxis(day_lam, 2, 0) * city.slot_factors[
        day * spd : (day + 1) * spd, None, None
    ]


def intensity_tensor(city: SyntheticCity) -> np.ndarray:
    """Expected trips per (slot, origin, destination) for the full window.

    Materialises the whole ``(days * spd, n, n)`` tensor — fine for
    inspection and small cities; the generation path iterates
    :func:`day_intensity` blocks instead so paper-scale cities never
    hold more than one day of intensities.
    """
    config = city.config
    spd = config.slots_per_day
    weekday, weekend = _base_day_intensities(city)
    n = len(city.registry)
    lam = np.empty((config.days * spd, n, n))
    for day in range(config.days):
        lam[day * spd : (day + 1) * spd] = day_intensity(city, day, weekday, weekend)
    return lam


def generate_trips(
    city: SyntheticCity, seed: int = 0
) -> list[TripRecord]:
    """Sample trip records from the city's Poisson intensity model.

    Sampling is day-chunked: ``Generator.poisson`` consumes the bit
    stream per element in array order, so consecutive per-day draws are
    bitwise identical to one full-window draw while peak memory stays at
    one ``(spd, n, n)`` intensity block — at ``chicago_571`` scale that
    is ~0.13 GB instead of ~2.5 GB of intensity + count tensors.
    """
    config = city.config
    rng = np.random.default_rng(seed + 1)
    weekday, weekend = _base_day_intensities(city)
    distances = city.registry.distance_matrix()
    slot_seconds = config.slot_seconds
    spd = config.slots_per_day

    # Phase 1: all Poisson draws, day by day. ``Generator.poisson``
    # consumes the bit stream element-wise in array order, so these
    # consecutive per-day draws replay exactly the stream of one full
    # (days*spd, n, n) draw — but only one day's intensity block is ever
    # live, and each day is compacted to its nonzero entries immediately.
    sparse_counts = []
    for day in range(config.days):
        counts = rng.poisson(day_intensity(city, day, weekday, weekend))
        nonzero = np.nonzero(counts)
        sparse_counts.append((*nonzero, counts[nonzero]))

    # Phase 2: per-trip jitter draws, in the same global (t, i, j) order
    # as the pre-chunking implementation (days ascend, nonzero is
    # row-major within a day), keeping the stream bitwise unchanged.
    trips: list[TripRecord] = []
    trip_id = 0
    for day, (slot_idx, origins, destinations, values) in enumerate(sparse_counts):
        for t_local, i, j, count in zip(slot_idx, origins, destinations, values):
            t = day * spd + t_local
            for _ in range(count):
                start = (t + rng.random()) * slot_seconds
                ride_km = max(distances[i, j], 0.3)
                hours = ride_km / config.bike_speed_kmh
                duration = max(hours * 3600.0 * rng.lognormal(0.0, 0.25), 120.0)
                trips.append(
                    TripRecord(
                        trip_id=trip_id,
                        origin=int(i),
                        destination=int(j),
                        start_time=float(start),
                        end_time=float(start + duration),
                    )
                )
                trip_id += 1

    if config.dirty_fraction > 0.0:
        trips.extend(_dirty_trips(config, rng, len(trips), first_id=trip_id))
    return trips


def _dirty_trips(
    config: SyntheticCityConfig,
    rng: np.random.Generator,
    clean_count: int,
    first_id: int,
) -> list[TripRecord]:
    """Corrupt records for the cleaning path: one of three defect kinds."""
    num_dirty = int(clean_count * config.dirty_fraction / (1.0 - config.dirty_fraction))
    window = config.days * SECONDS_PER_DAY
    dirty: list[TripRecord] = []
    for offset in range(num_dirty):
        kind = rng.integers(0, 3)
        start = rng.uniform(0, window * 0.9)
        origin = int(rng.integers(0, config.num_stations))
        destination = int(rng.integers(0, config.num_stations))
        if kind == 0:  # negative duration
            end = start - rng.uniform(60, 3600)
        elif kind == 1:  # absurdly long trip
            end = start + rng.uniform(25 * 3600, 48 * 3600)
        else:  # unknown station sentinel
            end = start + rng.uniform(300, 1800)
            origin = -1
        dirty.append(TripRecord(first_id + offset, origin, destination, start, end))
    return dirty


def generate_city(
    config: SyntheticCityConfig, seed: int = 0
) -> BikeShareDataset:
    """End-to-end synthesis: city → trips → cleaning → flows → dataset.

    Runs the exact pipeline a real-data loader would, so the cleaning
    and flow-building code paths are exercised on every generation.
    """
    city = build_city(config, seed)
    trips = generate_trips(city, seed)
    clean, _report = clean_trips(trips, config.num_stations)
    num_slots = config.days * config.slots_per_day
    inflow, outflow = build_flow_slots(
        clean, config.num_stations, num_slots, config.slot_seconds
    )
    data_config = FlowDataConfig(
        slot_seconds=config.slot_seconds,
        short_window=config.short_window,
        long_days=config.long_days,
    )
    return BikeShareDataset(
        city.registry, inflow, outflow, data_config, name=config.name
    )
