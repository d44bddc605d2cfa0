"""Train offline, checkpoint, and serve online — the Sec. VII-I story.

The paper argues STGNN-DJD deploys online because a trained model
predicts a slot in milliseconds without retraining. This script walks
that lifecycle:

    python examples/train_save_deploy.py [--checkpoint /tmp/stgnn.npz]

1. train on a synthetic city and save a ``.npz`` checkpoint;
2. in a fresh "serving" phase, rebuild the model from the checkpoint
   alone (no dataset needed for the weights);
3. replay the test days as an online loop, timing each per-slot
   prediction and comparing the mean latency to the slot duration;
4. boot a :class:`repro.serve.PredictionService` from the checkpoint,
   stream live trip events into its incremental flow-state store, and
   answer micro-batched forecast queries — the production-shaped path.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro import (
    STGNNDJD,
    SyntheticCityConfig,
    Trainer,
    TrainingConfig,
    evaluate_model,
    generate_city,
)
from repro.core import load_stgnn, save_checkpoint
from repro.serve import FlowStateStore, PredictionService


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--checkpoint", type=Path, default=Path("/tmp/stgnn.npz"))
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args()

    config = SyntheticCityConfig(
        name="deploy-city", num_stations=12, days=14,
        trips_per_day=70.0 * 12, slot_seconds=1800.0,
        short_window=48, long_days=3,
    )
    dataset = generate_city(config, seed=args.seed)

    # --- offline phase -------------------------------------------------
    print("[offline] training ...")
    model = STGNNDJD.from_dataset(dataset, seed=args.seed)
    trainer = Trainer(model, dataset,
                      TrainingConfig(epochs=args.epochs, seed=args.seed))
    trainer.fit()
    save_checkpoint(model, args.checkpoint)
    size_kb = args.checkpoint.stat().st_size / 1024
    print(f"[offline] checkpoint written: {args.checkpoint} ({size_kb:.0f} KiB)")

    # --- online phase ---------------------------------------------------
    print("[online] rebuilding model from checkpoint only ...")
    served = load_stgnn(args.checkpoint)
    serving_trainer = Trainer(served, dataset)  # dataset supplies the stream

    _, _, test_idx = dataset.split_indices()
    start = time.perf_counter()
    for t in test_idx:
        serving_trainer.predict(int(t))
    mean = (time.perf_counter() - start) / len(test_idx)
    slot = dataset.config.slot_seconds
    print(f"[online] served {len(test_idx)} slots, "
          f"mean latency {mean * 1000:.1f} ms "
          f"({mean / slot * 100:.4f}% of the {slot:.0f}s slot)")
    print(f"[online] accuracy: {evaluate_model(serving_trainer, dataset)}")

    # --- serving phase --------------------------------------------------
    # The production-shaped path: an incremental flow-state store fed by
    # live events, a micro-batching dispatcher, and a per-slot cache.
    print("[serving] booting PredictionService from checkpoint ...")
    store = FlowStateStore.from_dataset(dataset)
    with PredictionService.from_checkpoint(
        args.checkpoint, store,
        dataset.demand_normalizer, dataset.supply_normalizer,
    ) as service:
        forecast = service.predict()
        print(f"[serving] slot {forecast.slot}: "
              f"demand[0]={forecast.demand[0]:.2f} "
              f"supply[0]={forecast.supply[0]:.2f}")
        # Stream a few live trips into the open slot, roll the clock
        # over, and forecast the next slot from the updated state.
        now = store.frontier * slot
        for origin, destination in [(0, 5), (3, 2), (7, 0), (5, 11)]:
            store.ingest_event(origin, destination,
                               start_time=now + 60.0,
                               end_time=now + 60.0 + slot / 2)
        store.advance_to(store.frontier + 1)
        forecast = service.predict()
        cached = service.predict()  # same slot, same state: served from cache
        print(f"[serving] slot {forecast.slot} after ingest+rollover: "
              f"demand[0]={forecast.demand[0]:.2f} "
              f"(repeat query cached={cached.cached})")
    print("[serving] service stopped cleanly")


if __name__ == "__main__":
    main()
