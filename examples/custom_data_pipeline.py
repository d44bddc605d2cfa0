"""Using your own trip data: CSV → cleaning → dataset → model.

Shows the exact pipeline a user with real bike-share exports (Divvy,
Metro, Citi Bike, ...) would run. For demonstration the script first
*writes* a CSV pair from the synthetic generator (with deliberately
dirty records), then pretends it's foreign data:

    python examples/custom_data_pipeline.py [--workdir /tmp/bikes]

1. read stations.csv / trips.csv;
2. clean abnormal records (negative durations, >24h trips, unknown
   stations) and print the cleaning report, per paper Sec. VII-A;
3. slot the trips into inflow/outflow matrices (canonical sparse slots);
4. assemble a ``BikeShareDataset`` and train a small model on it.
"""

from __future__ import annotations

import argparse
import dataclasses
from pathlib import Path

from repro import STGNNDJD, Trainer, TrainingConfig, evaluate_model
from repro.data import (
    BikeShareDataset,
    FlowDataConfig,
    SyntheticCityConfig,
    build_city,
    build_flow_slots,
    clean_trips,
    generate_trips,
    read_stations_csv,
    read_trips_csv,
    write_stations_csv,
    write_trips_csv,
)


def fabricate_export(workdir: Path, seed: int) -> SyntheticCityConfig:
    """Write a 'foreign' CSV export, 5% of whose rows are corrupt."""
    config = SyntheticCityConfig(
        name="csv-city", num_stations=10, days=12,
        trips_per_day=50.0 * 10, slot_seconds=1800.0,
        short_window=48, long_days=3, dirty_fraction=0.05,
    )
    city = build_city(config, seed=seed)
    trips = generate_trips(city, seed=seed)
    write_stations_csv(city.registry, workdir / "stations.csv")
    write_trips_csv(trips, workdir / "trips.csv")
    print(f"Wrote {len(trips)} trips (including dirty rows) to {workdir}")
    return config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=Path("/tmp/repro-bikes"))
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    config = fabricate_export(args.workdir, args.seed)

    # --- From here on: the real-data path. ---
    registry = read_stations_csv(args.workdir / "stations.csv")
    trips = read_trips_csv(args.workdir / "trips.csv")
    print(f"\nLoaded {len(registry)} stations, {len(trips)} raw trips")

    clean, report = clean_trips(trips, num_stations=len(registry))
    print("Cleaning report (paper Sec. VII-A rules):")
    for rule, count in report.as_dict().items():
        print(f"  {rule:<20} {count}")

    num_slots = config.days * config.slots_per_day
    inflow, outflow = build_flow_slots(
        clean, len(registry), num_slots, config.slot_seconds
    )
    dataset = BikeShareDataset(
        registry, inflow, outflow,
        FlowDataConfig(slot_seconds=config.slot_seconds,
                       short_window=config.short_window,
                       long_days=config.long_days),
        name="csv-city",
    )
    print(f"\nAssembled {dataset}")

    model = STGNNDJD.from_dataset(dataset, seed=args.seed)
    trainer = Trainer(model, dataset,
                      TrainingConfig(epochs=args.epochs, seed=args.seed))
    trainer.fit()
    print(f"Test result: {evaluate_model(trainer, dataset)}")


if __name__ == "__main__":
    main()
