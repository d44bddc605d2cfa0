"""Sec. VII-I — prediction efficiency, per compute mode.

The paper reports mean online prediction times per slot (all stations)
of 0.038 s (Chicago) and 0.014 s (Los Angeles) on an RTX 2080 Ti, and
argues both sit far below the 15-minute slot duration. We measure the
same quantity on this substrate (CPU, numpy autograd), for three
serving modes:

* ``recorded_float64`` — forward with the autograd graph recorded: per
  op a backward closure and parent tuple are allocated. This is the
  substrate's training-path cost and the stand-in for the pre-backend
  serving path, which paid the same per-op allocations under ``no_grad``.
* ``inference_float64`` — the forward-only fast path
  (``inference_mode``): no closures, no parent tuples; double precision.
* ``inference_float32`` — the fast path with the model cast to single
  precision by ``model.to(np.float32)`` alone (ops follow their inputs).

Results are persisted to ``BENCH_efficiency.json`` at the repo root —
latency per slot, per city, per mode — and the fast float32 path must
be at least 1.5x faster than the recorded-graph path.

Reproduction targets: (1) all modes are orders of magnitude below the
slot duration, i.e. deployable online; (2) the forward-only float32
path clears the 1.5x speedup bar over the recorded-graph path.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from _harness import (
    DATASET_NAMES,
    PAPER_EFFICIENCY,
    get_dataset,
    get_stgnn_trainer,
    op_profile,
)

WARMUP = 3
REPEATS = 30
SPEEDUP_TARGET = 1.5
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_efficiency.json"

_timing_cache: dict[str, dict[str, float]] = {}
_results: dict[str, dict] = {}


def _recorded_predict(trainer, t: int):
    """One prediction on the graph-recording path (seed-equivalent).

    Mirrors ``Trainer.predict`` — eval-mode forward plus denormalisation
    — but with grad recording left on, so every op allocates its backward
    closure and parent tuple exactly as the pre-backend serving path did.
    """
    trainer.model.eval()
    demand_pred, supply_pred = trainer.model(trainer.dataset.sample(t))
    demand = trainer.dataset.demand_normalizer.inverse_transform(demand_pred.data)
    supply = trainer.dataset.supply_normalizer.inverse_transform(supply_pred.data)
    trainer.model.train()
    return demand, supply


def _time_calls(fn, indices, repeats: int = REPEATS) -> float:
    for i in range(WARMUP):
        fn(int(indices[i % len(indices)]))
    start = time.perf_counter()
    for i in range(repeats):
        fn(int(indices[i % len(indices)]))
    return (time.perf_counter() - start) / repeats


def measured_latencies(city: str) -> dict[str, float]:
    """Mean per-slot prediction latency for each serving mode."""
    if city in _timing_cache:
        return _timing_cache[city]
    trainer = get_stgnn_trainer(city)
    dataset = get_dataset(city)
    _, _, test_idx = dataset.split_indices()

    latencies = {
        "recorded_float64": _time_calls(
            lambda t: _recorded_predict(trainer, t), test_idx
        ),
        "inference_float64": _time_calls(trainer.predict, test_idx),
    }

    # float32 serving: cast the model down, then restore the exact
    # float64 weights (the float64->float32->float64 round trip
    # truncates mantissas, so reload the snapshot).
    snapshot = trainer.model.state_dict()
    trainer.model.to(np.float32)
    try:
        latencies["inference_float32"] = _time_calls(trainer.predict, test_idx)
    finally:
        trainer.model.to(np.float64)
        trainer.model.load_state_dict(snapshot)

    _timing_cache[city] = latencies
    return latencies


def _persist(city: str, latencies: dict[str, float], speedup: float) -> None:
    dataset = get_dataset(city)
    # Untimed profiled pass: where one inference-mode prediction spends
    # its op dispatches (per-op seconds/bytes, fused-coverage ratio).
    trainer = get_stgnn_trainer(city)
    t = int(dataset.split_indices()[2][0])
    _, profile_dict = op_profile(trainer.predict, t)
    _results[city] = {
        "op_profile": profile_dict,
        "latency_seconds_per_slot": latencies,
        "speedup_float32_vs_recorded": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "paper_gpu_latency_seconds": PAPER_EFFICIENCY[city],
        "slot_seconds": dataset.config.slot_seconds,
        "num_stations": dataset.num_stations,
        "repeats": REPEATS,
    }
    RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")


@pytest.mark.parametrize("city", DATASET_NAMES)
def test_efficiency(city, benchmark, capsys):
    latencies = measured_latencies(city)
    dataset = get_dataset(city)
    slot_seconds = dataset.config.slot_seconds
    speedup = latencies["recorded_float64"] / latencies["inference_float32"]
    _persist(city, latencies, speedup)

    with capsys.disabled():
        print(
            f"\nSec. VII-I efficiency — {city}: "
            f"recorded {latencies['recorded_float64'] * 1000:.1f} ms, "
            f"inference f64 {latencies['inference_float64'] * 1000:.1f} ms, "
            f"inference f32 {latencies['inference_float32'] * 1000:.1f} ms/slot "
            f"({speedup:.2f}x vs recorded; paper: "
            f"{PAPER_EFFICIENCY[city] * 1000:.0f} ms on GPU); "
            f"slot duration {slot_seconds:.0f} s"
        )

    # Shape: online-deployable — far below the slot duration. (The
    # paper's second observation, "the bigger city is slower", is not
    # asserted: at this reproduction's model sizes per-call latency is
    # dominated by constant Python dispatch overhead, so the city-size
    # effect is within measurement noise.)
    assert latencies["inference_float64"] < slot_seconds / 100.0
    # The forward-only float32 path must clear the refactor's speedup bar.
    assert speedup >= SPEEDUP_TARGET

    trainer = get_stgnn_trainer(city)
    _, _, test_idx = dataset.split_indices()
    benchmark(trainer.predict, int(test_idx[0]))
