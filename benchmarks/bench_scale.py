"""Paper-scale scaling benchmark: latency and memory vs station count.

The paper's Chicago dataset has 571 Divvy stations; the dense graph
stack is O(n^2) per layer in both memory and FLOPs, so this benchmark
charts how the substrate behaves as the city grows to that size:

* forward latency (inference mode, warm, median over repeats);
* training-epoch latency (one full epoch over the train split);
* a served ``/predict`` round trip through :class:`PredictionService`,
  checked **bitwise** against the offline forward ``model(dataset.sample(t))``
  at the same frontier ``t`` — the store and the dataset must build the
  same canonical sparse windows (DESIGN "Sparse flow windows");
* peak RSS via ``resource.getrusage`` — measured in a *fresh subprocess
  per size*, so each number is a true high-water mark, not
  contaminated by previously benchmarked sizes.

Gates (asserted by the parent, ``--smoke`` included): every size's
served forecast equals the offline forward bitwise, and peak RSS at
n=571 must stay below 4x the n=300 peak. The large terms grow at most
quadratically: the dense FCG/PCG and attention matrices of a forward
and the ``(n, n)`` activations a training step's autograd tape holds.
Flows have no ``n^2`` term: the dataset and the store keep canonical
sparse slots, which grow with trips (linearly in ``n`` here, as trips
per station are fixed). Pure quadratic growth gives (571/300)^2 ~=
3.62x, and the fixed interpreter/numpy baseline and the linear terms
pull the measured ratio below that. A ratio of 4x or more means
something grows faster than n^2, such as an ``(n, n, f)`` cube or a
per-size copy kept alive.

Results go to ``BENCH_scale.json`` at the repo root.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py           # full run
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke   # CI gate
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = REPO_ROOT / "BENCH_scale.json"
_CHILD_MARKER = "RESULT_JSON:"

try:
    import repro  # noqa: F401  (resolves via PYTHONPATH when set)
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

SIZES = (24, 100, 300, 571)
DAYS = 6  # 288 half-hour slots; min_history 144 leaves a real train split
FORWARD_REPEATS = 5
RSS_RATIO_LIMIT = 4.0  # peak_rss(571) must stay under 4x peak_rss(300)
MODEL_KWARGS = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)


def _city_config(n: int, days: int):
    """The chicago_571 preset, rescaled to ``n`` stations.

    Per-station trip volume (30 trips/station/day — real Divvy density)
    and all temporal settings are held fixed so the only thing that
    varies across sizes is the station count.
    """
    from repro import SyntheticCityConfig

    config = SyntheticCityConfig.chicago_571(days=days)
    if n == config.num_stations:
        return config
    return dataclasses.replace(
        config,
        name=f"chicago-{n}",
        num_stations=n,
        trips_per_day=30.0 * n,
        school_pairs=min(4, n // 8),
    )


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ----------------------------------------------------------------------
# Child mode: one station count in one fresh process
# ----------------------------------------------------------------------
def _run_child(n: int, days: int) -> None:
    from _harness import op_profile
    from repro import STGNNDJD, Trainer, TrainingConfig, generate_city
    from repro.serve import PredictionService, ServiceConfig
    from repro.tensor import inference_mode

    start = time.perf_counter()
    dataset = generate_city(_city_config(n, days), seed=2022)
    dataset_seconds = time.perf_counter() - start

    model = STGNNDJD.from_dataset(dataset, seed=3, **MODEL_KWARGS)

    model.eval()
    t = int(dataset.min_history)
    with inference_mode():
        model(dataset.sample(t))  # warm (caches)
        timings = []
        for i in range(FORWARD_REPEATS):
            tick = time.perf_counter()
            model(dataset.sample(t + i))
            timings.append(time.perf_counter() - tick)
    forward_seconds = float(np.median(timings))

    with inference_mode():
        _, profile_dict = op_profile(model, dataset.sample(t))

    # One served /predict round trip (the online path must work at
    # every size, chicago_571 included), at the last sampleable slot so
    # the offline forward can be taken at the same frontier.
    # cache=False so the timed request pays a real forward rather than
    # hitting the per-slot forecast cache the warm request primed.
    frontier = dataset.num_slots - 1
    with PredictionService.for_dataset(
        model, dataset, config=ServiceConfig(cache=False), frontier=frontier
    ) as service:
        service.predict(timeout=600.0)  # warm
        tick = time.perf_counter()
        served = service.predict(timeout=600.0)
        serve_seconds = time.perf_counter() - tick
    with inference_mode():
        demand, supply = model(dataset.sample(frontier))
    served_matches_offline = bool(
        served.slot == frontier
        and np.array_equal(
            served.demand, dataset.demand_normalizer.inverse_transform(demand.data)
        )
        and np.array_equal(
            served.supply, dataset.supply_normalizer.inverse_transform(supply.data)
        )
    )

    # One full training epoch (the model is float64, as Trainer.fit needs).
    model.train()
    train_idx = dataset.split_indices()[0]
    trainer = Trainer(
        model, dataset, TrainingConfig(epochs=1, batch_size=8, seed=5)
    )
    tick = time.perf_counter()
    trainer._run_epoch(train_idx)
    epoch_seconds = time.perf_counter() - tick

    result = {
        "n": n,
        "days": days,
        "dataset_seconds": dataset_seconds,
        "forward_seconds": forward_seconds,
        "serve_predict_seconds": serve_seconds,
        "served_matches_offline": served_matches_offline,
        "epoch_seconds": epoch_seconds,
        "train_samples": int(len(train_idx)),
        "peak_rss_bytes": _peak_rss_bytes(),
        "op_profile": profile_dict,
    }

    print(_CHILD_MARKER + json.dumps(result), flush=True)


# ----------------------------------------------------------------------
# Parent mode
# ----------------------------------------------------------------------
def _measure(n: int, days: int) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--_child",
        f"--n={n}", f"--days={days}",
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ),
        cwd=str(REPO_ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measurement failed (n={n}):\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith(_CHILD_MARKER):
            return json.loads(line[len(_CHILD_MARKER):])
    raise RuntimeError(f"no result marker in child output:\n{proc.stdout}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI gate: n=24 only")
    parser.add_argument("--days", type=int, default=DAYS)
    parser.add_argument("--n", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--output", type=Path, default=RESULTS_PATH)
    parser.add_argument("--_child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args._child:
        _run_child(args.n, args.days)
        return 0

    if args.smoke:
        sizes, days = (24,), DAYS
    else:
        sizes, days = SIZES, args.days

    results = {
        "smoke": args.smoke,
        "rss_ratio_limit": RSS_RATIO_LIMIT,
        "sizes": {},
    }
    for n in sizes:
        print(f"== n={n} ==", flush=True)
        entry = _measure(n, days)
        results["sizes"][str(n)] = entry
        print(f"   forward {entry['forward_seconds']*1e3:8.1f} ms  "
              f"epoch {entry['epoch_seconds']:7.1f} s  "
              f"serve {entry['serve_predict_seconds']*1e3:8.1f} ms  "
              f"peak RSS {entry['peak_rss_bytes']/1e9:5.2f} GB")

    failures = [
        f"served forecast at n={n} differs from model(dataset.sample(t))"
        for n, entry in results["sizes"].items()
        if not entry["served_matches_offline"]
    ]
    if {"300", "571"} <= results["sizes"].keys():
        ratio = (results["sizes"]["571"]["peak_rss_bytes"]
                 / results["sizes"]["300"]["peak_rss_bytes"])
        results["rss_ratio_571_vs_300"] = ratio
        print(f"\npeak RSS growth 300 -> 571: {ratio:.2f}x "
              f"(limit {RSS_RATIO_LIMIT}x)")
        if ratio >= RSS_RATIO_LIMIT:
            failures.append(
                f"peak RSS at n=571 is {ratio:.2f}x the n=300 peak "
                f"(>= {RSS_RATIO_LIMIT}x limit)"
            )

    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
