"""Rush-hour operations: where will bikes run short tomorrow morning?

The scenario from the paper's introduction: the operator needs demand
and supply forecasts at rush hours to dispatch bikes ahead of shortages.

    python examples/rush_hour_operations.py [--seed 3]

The script trains STGNN-DJD on a commuter-heavy synthetic city, then:
1. compares whole-day vs morning-rush vs evening-rush accuracy
   (the paper's Table II cut);
2. forecasts the morning rush of the last test day and ranks stations
   by predicted net outflow (demand - supply) — the shortage risk list
   an operator would act on.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    STGNNDJD,
    SyntheticCityConfig,
    Trainer,
    TrainingConfig,
    evaluate_model,
    generate_city,
)
from repro.eval import rush_window_times
from repro.rebalance import forecast_shortages, plan_rebalancing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    config = SyntheticCityConfig(
        name="commuter-city",
        num_stations=14,
        days=14,
        trips_per_day=80.0 * 14,
        slot_seconds=1800.0,
        short_window=48,
        long_days=3,
        school_pairs=1,
    )
    dataset = generate_city(config, seed=args.seed)
    print(f"{dataset}")

    model = STGNNDJD.from_dataset(dataset, seed=args.seed)
    trainer = Trainer(
        model, dataset, TrainingConfig(epochs=args.epochs, seed=args.seed)
    )
    trainer.fit()

    print("\nAccuracy by window (paper Table II cut):")
    for window, label in [(None, "whole day"), ("morning", "morning rush 07-10"),
                          ("evening", "evening rush 17-20")]:
        result = evaluate_model(trainer, dataset, window=window)
        print(f"  {label:<22} {result}")

    # Forecast tomorrow's morning rush and rank shortage risk.
    last_day = dataset.num_days - 1
    times = rush_window_times(dataset, last_day, 7.0, 10.0)
    net_outflow = forecast_shortages(trainer, dataset, times)

    print(f"\nPredicted net outflow (demand - supply) for day {last_day}, "
          f"07:00-10:00:")
    order = np.argsort(-net_outflow)
    print("  rank | station | name            | predicted net outflow")
    for rank, station in enumerate(order[:8], start=1):
        name = dataset.registry[int(station)].name
        flag = "  <- dispatch bikes here" if net_outflow[station] > 0 and rank <= 3 else ""
        print(f"  {rank:>4} | {station:>7} | {name:<15} "
              f"| {net_outflow[station]:>+8.1f}{flag}")

    actual = (dataset.demand[times] - dataset.supply[times]).sum(axis=0)
    overlap = len(set(order[:3].tolist()) & set(np.argsort(-actual)[:3].tolist()))
    print(f"\n  top-3 shortage stations correctly identified: {overlap}/3")

    # Turn the forecast into an actual dispatch plan.
    plan = plan_rebalancing(
        net_outflow, dataset.registry.distance_matrix(), capacity_per_move=10
    )
    print(f"\nDispatch plan for the window: {plan}")
    for move in plan.moves[:6]:
        print(f"  move {move.bikes:>2} bikes: station {move.source} -> "
              f"{move.destination} ({move.distance_km:.1f} km)")
    if len(plan.moves) > 6:
        print(f"  ... and {len(plan.moves) - 6} more moves")


if __name__ == "__main__":
    main()
