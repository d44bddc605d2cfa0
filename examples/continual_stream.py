"""Close the loop: a month of live traffic, retrained and auto-deployed.

Simulates the full online lifecycle of the paper's model:

1. **Offline** — train STGNN-DJD on the first ten days of a synthetic
   city and deploy it behind a :class:`PredictionService`.
2. **Stream** — replay the remaining weeks trip by trip into the live
   :class:`FlowStateStore`, forecasting every slot with (a) the
   continually-updated deployment and (b) a frozen copy of the launch
   checkpoint, each scored by its own rolling quality monitor.
3. **Continual learning** — every couple of days the
   :class:`ContinualLearner` extracts recent history from the store,
   warm-starts an incremental retrain from the last training snapshot,
   shadow-evaluates the candidate against the live model on held-back
   slots, and auto-promotes only when the candidate is at least as good.
4. **Station churn** — mid-stream, one station closes and a brand-new
   one opens. The whole deployment — store ring buffers, model
   parameters, optimizer moments, serving caches — is remapped live,
   with no restart and no cold-start retrain.

Exit checks (the point of the demo):

* the continual deployment's rolling joint RMSE (paper Eq. 22) ends the
  stream **no worse than the frozen baseline's**;
* at least one candidate was promoted, and *every* promotion in the
  recorded event stream was preceded by its shadow evaluation;
* a rolling-RMSE report is written as a JSON artifact.

    python examples/continual_stream.py                  # month-long stream
    python examples/continual_stream.py --smoke          # CI-sized stream
    python examples/continual_stream.py --report out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from repro.continual import ContinualConfig, ContinualLearner, GraphEvolution, evolve_model
from repro.core.model import STGNNDJD
from repro.core.persistence import load_stgnn, save_checkpoint, save_training_snapshot
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.cleaning import clean_trips
from repro.data.dataset import BikeShareDataset, FlowDataConfig
from repro.data.flows import build_flow_slots
from repro.data.synthetic import SyntheticCityConfig, build_city, generate_trips
from repro.obs.events import JsonlExporter, read_events, sink_scope
from repro.obs.quality import QualityConfig
from repro.serve.service import PredictionService, ServiceConfig
from repro.serve.state import FlowStateStore

MODEL_KWARGS = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized stream: 16 days instead of 31")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--report", type=Path, default=None,
                        help="where to write the rolling-RMSE JSON artifact")
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    days = 16 if args.smoke else 31
    warmup_days = 10
    churn_day = 12 if args.smoke else 18
    cycle_days = 2          # retrain cadence after the warmup
    offline_epochs = 1 if args.smoke else 2

    config = SyntheticCityConfig.tiny(days=days, num_stations=6)
    spd = config.slots_per_day
    slot_seconds = config.slot_seconds
    n = config.num_stations
    warmup_slots = warmup_days * spd
    total_slots = days * spd

    # ------------------------------------------------------------------
    # The "real world": one trip log for the whole month.
    # ------------------------------------------------------------------
    city = build_city(config, seed=args.seed)
    trips = generate_trips(city, seed=args.seed)
    clean, _report = clean_trips(trips, n)
    trips_by_slot: dict[int, list] = defaultdict(list)
    for trip in clean:
        trips_by_slot[trip.start_slot(slot_seconds)].append(trip)

    # ------------------------------------------------------------------
    # Offline: train on the first ten days, deploy the checkpoint.
    # ------------------------------------------------------------------
    warmup_trips = [t for t in clean if t.start_slot(slot_seconds) < warmup_slots]
    inflow, outflow = build_flow_slots(warmup_trips, n, warmup_slots, slot_seconds)
    warmup = BikeShareDataset(
        city.registry, inflow, outflow,
        FlowDataConfig(
            slot_seconds=slot_seconds,
            short_window=config.short_window,
            long_days=config.long_days,
        ),
        name="warmup",
    )
    print(f"Offline training on {warmup_days} days "
          f"({offline_epochs} epoch{'s' if offline_epochs > 1 else ''}) ...")
    model = STGNNDJD.from_dataset(warmup, seed=3, **MODEL_KWARGS)
    trainer = Trainer(model, warmup, TrainingConfig(
        epochs=offline_epochs, batch_size=16, seed=0,
    ))
    history = trainer.fit()
    out_dir = Path(tempfile.mkdtemp(prefix="continual-stream-"))
    ckpt = out_dir / "model.npz"
    snap = out_dir / "snapshot.npz"
    save_checkpoint(model, ckpt)
    save_training_snapshot(snap, trainer.capture_snapshot(
        epoch=offline_epochs - 1, history=history,
    ))

    # ------------------------------------------------------------------
    # Live wiring: one store, two deployments, one learner.
    # ------------------------------------------------------------------
    store = FlowStateStore.from_dataset(warmup, retained_slots=9 * spd)
    quality = QualityConfig(window=2 * spd, min_samples=1)
    live = PredictionService(
        model, store, warmup.demand_normalizer, warmup.supply_normalizer,
        config=ServiceConfig(name="serve.live", quality=quality),
    ).start()
    frozen_model = load_stgnn(ckpt)
    frozen = PredictionService(
        frozen_model, store, warmup.demand_normalizer, warmup.supply_normalizer,
        config=ServiceConfig(name="serve.frozen", quality=quality),
    ).start()
    learner = ContinualLearner(
        store, live, warmup.registry,
        ContinualConfig(
            checkpoint_path=str(ckpt), snapshot_path=str(snap),
            train_days=7, retrain_epochs=1, holdback_slots=6, seed=args.seed,
        ),
        demand_normalizer=warmup.demand_normalizer,
        supply_normalizer=warmup.supply_normalizer,
        flow_scale=warmup.flow_scale,
    )

    # Churn: the last station closes, a brand-new one opens in its slot
    # id. Keeping ids 0..n-2 means surviving trips replay unchanged;
    # trips touching the closed station simply stop arriving.
    retired = n - 1
    evolution = GraphEvolution(n, tuple(range(n - 1)), 1)

    rolling_series: list[dict] = []
    events_path = out_dir / "events.jsonl"
    cycle_results = []
    print(f"Streaming days {warmup_days}..{days} "
          f"(churn at day {churn_day}, retrain every {cycle_days} days) ...")
    try:
        with sink_scope(JsonlExporter(events_path)) as sink:
            for slot in range(warmup_slots, total_slots):
                live.predict()
                frozen.predict()
                for trip in trips_by_slot.get(slot, ()):
                    if store.config.num_stations < n and (
                        trip.origin == retired or trip.destination == retired
                    ):
                        continue  # the closed station's dock is gone
                    store.ingest(trip)
                store.advance_to(slot + 1)

                if (slot + 1) % spd:
                    continue
                day = (slot + 1) // spd
                live_rolling = live.quality.rolling(0)
                frozen_rolling = frozen.quality.rolling(0)
                rolling_series.append({
                    "day": day,
                    "continual_rmse": None if live_rolling is None
                    else live_rolling["rmse"],
                    "frozen_rmse": None if frozen_rolling is None
                    else frozen_rolling["rmse"],
                    "model_version": live.model_version,
                })
                if day == churn_day:
                    drained = learner.apply_station_change(evolution)
                    # The frozen baseline gets the same surgery — kept
                    # weights moved, identical fresh rows for the new
                    # station — but never any retraining.
                    frozen_model = evolve_model(
                        frozen_model, evolution, seed=args.seed,
                    )
                    frozen_ckpt = out_dir / "frozen-evolved.npz"
                    save_checkpoint(frozen_model, frozen_ckpt)
                    frozen.on_graph_evolved()
                    frozen.reload(frozen_ckpt)
                    print(f"  day {day}: station {retired} closed, one "
                          f"opened (drained {drained:.0f} in-transit "
                          f"arrivals); store remapped live")
                elif day < days and (day - warmup_days) % cycle_days == 0:
                    result = learner.run_cycle()
                    cycle_results.append(result)
                    verdict = ("promoted -> v" + str(result.model_version)
                               if result.promoted else "held back")
                    print(f"  day {day}: cycle {result.cycle} candidate "
                          f"{result.candidate_rmse:.4f} vs live "
                          f"{result.live_rmse:.4f} RMSE on "
                          f"{result.eval_samples} shadow slots — {verdict}")
            sink.close()
    finally:
        live.stop()
        frozen.stop()

    # ------------------------------------------------------------------
    # Exit checks.
    # ------------------------------------------------------------------
    final_live = live.quality.rolling(0)
    final_frozen = frozen.quality.rolling(0)
    print(f"\nFinal rolling joint RMSE over the last {2 * spd} slots:")
    print(f"  continual  {final_live['rmse']:.4f}  "
          f"(model v{live.model_version}, {learner.promotions} promotions)")
    print(f"  frozen     {final_frozen['rmse']:.4f}")
    assert final_live["rmse"] <= final_frozen["rmse"] + 1e-9, (
        "continual deployment ended worse than the frozen baseline"
    )
    assert learner.promotions >= 1, "no candidate was ever promoted"

    # Every promotion in the event stream must have been preceded by its
    # own shadow evaluation — nothing ships unevaluated.
    shadow_evaled: set[int] = set()
    promoted_cycles: list[int] = []
    for event in read_events(events_path):
        if event["name"] == "continual.shadow_eval":
            shadow_evaled.add(event["data"]["cycle"])
        elif event["name"] == "continual.promoted":
            cycle = event["data"]["cycle"]
            assert cycle in shadow_evaled, (
                f"cycle {cycle} promoted without shadow evaluation"
            )
            promoted_cycles.append(cycle)
    assert len(promoted_cycles) == learner.promotions
    print(f"Every promotion ({promoted_cycles}) went through shadow "
          f"evaluation first — verified from the event stream.")

    report = {
        "mode": "smoke" if args.smoke else "full",
        "days": days,
        "stations": n,
        "warmup_days": warmup_days,
        "churn_day": churn_day,
        "cycles": len(cycle_results),
        "promotions": learner.promotions,
        "promoted_cycles": promoted_cycles,
        "final_continual_rmse": final_live["rmse"],
        "final_frozen_rmse": final_frozen["rmse"],
        "rolling": rolling_series,
    }
    report_path = args.report or out_dir / "rolling_rmse.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report, indent=2))
    print(f"Rolling-RMSE report written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
