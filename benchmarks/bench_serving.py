"""Serving throughput — request micro-batching vs one-forward-per-request.

A closed-loop load generator drives a running
:class:`repro.serve.PredictionService` with concurrent clients, twice:

* ``unbatched`` — ``max_batch=1``: the dispatcher runs one model
  forward per request, the baseline a naive server would pay;
* ``batched`` — the default micro-batching dispatcher: requests that
  queue while a forward runs coalesce into the next forward, whose
  result fans out to every waiter.

The forecast cache is disabled for both modes so every *batch* costs a
real forward — the measured speedup isolates coalescing itself, not
caching. Results (throughput, latency percentiles, speedup) are
persisted to ``BENCH_serving.json`` at the repo root.

Reproduction target: micro-batching must deliver at least
``SPEEDUP_TARGET``x the unbatched throughput on the tiny synthetic
city.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke]

Exit status 0 on success; the speedup bar failing raises.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401  (resolves via PYTHONPATH when set)
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import STGNNDJD, SyntheticCityConfig, generate_city
from repro.serve import PredictionService, ServiceConfig

RESULTS_PATH = REPO_ROOT / "BENCH_serving.json"
SPEEDUP_TARGET = 1.3
SEED = 2022


def _load(service: PredictionService, clients: int, requests_per_client: int):
    """Closed-loop load: each client issues its requests back to back.

    Returns (wall_seconds, per-request latencies in seconds).
    """
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client(slot: int) -> None:
        barrier.wait()
        try:
            for _ in range(requests_per_client):
                start = time.perf_counter()
                service.predict(timeout=60.0)
                latencies[slot].append(time.perf_counter() - start)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    if errors:
        raise errors[0]
    return wall, [value for per_client in latencies for value in per_client]


def _measure(model, dataset, config: ServiceConfig, clients: int,
             requests_per_client: int, warmup: int) -> dict:
    with PredictionService.for_dataset(model, dataset, config=config) as service:
        for _ in range(warmup):
            service.predict(timeout=60.0)
        wall, latencies = _load(service, clients, requests_per_client)
    samples = np.asarray(latencies)
    return {
        "requests": int(samples.size),
        "wall_seconds": wall,
        "throughput_rps": samples.size / wall,
        "latency_seconds": {
            "mean": float(samples.mean()),
            "p50": float(np.percentile(samples, 50)),
            "p95": float(np.percentile(samples, 95)),
            "p99": float(np.percentile(samples, 99)),
        },
    }


def run_bench(smoke: bool = False) -> dict:
    clients = 8
    requests_per_client = 20 if smoke else 40
    warmup = 3

    dataset = generate_city(SyntheticCityConfig.tiny(), seed=SEED)
    model = STGNNDJD.from_dataset(dataset, seed=SEED)

    # cache=False: every coalesced batch pays a real forward, so the
    # comparison isolates micro-batching from per-slot caching.
    batched = _measure(
        model, dataset,
        ServiceConfig(cache=False, max_batch=64),
        clients, requests_per_client, warmup,
    )
    unbatched = _measure(
        model, dataset,
        ServiceConfig(cache=False, max_batch=1),
        clients, requests_per_client, warmup,
    )

    speedup = batched["throughput_rps"] / unbatched["throughput_rps"]

    # Tracing overhead on the serving path: the same batched load with
    # tracing enabled at the production sample rate, spans to JSONL.
    # ``batched`` above (tracing disabled) is the baseline — disabled
    # tracing costs one branch per span site.
    from repro.obs import JsonlExporter, set_sink
    from repro.obs.trace import TraceConfig, enable_tracing

    trace_sample = 0.01
    with tempfile.TemporaryDirectory(prefix="bench-serving-trace-") as tmp:
        sink = JsonlExporter(Path(tmp) / "serve.events.jsonl")
        prev_sink = set_sink(sink)
        prev_trace = enable_tracing(TraceConfig(sample_rate=trace_sample))
        try:
            traced = _measure(
                model, dataset,
                ServiceConfig(cache=False, max_batch=64),
                clients, requests_per_client, warmup,
            )
        finally:
            enable_tracing(prev_trace if prev_trace is not None else False)
            set_sink(prev_sink)
            sink.close()
    trace_overhead_pct = (
        batched["throughput_rps"] / traced["throughput_rps"] - 1.0
    ) * 100.0

    # Untimed profiled pass: one served prediction's op dispatches
    # (single client, so only the dispatcher thread runs tensor ops).
    from _harness import op_profile

    with PredictionService.for_dataset(
        model, dataset, config=ServiceConfig(cache=False)
    ) as service:
        service.predict(timeout=60.0)  # warm
        _, profile_dict = op_profile(service.predict, timeout=60.0)

    results = {
        "city": "tiny",
        "num_stations": dataset.num_stations,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "batched": batched,
        "unbatched": unbatched,
        "speedup_batched_vs_unbatched": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "trace_overhead": {
            "sample_rate": trace_sample,
            "traced": traced,
            "overhead_pct": trace_overhead_pct,
        },
        "op_profile": profile_dict,
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    for mode in ("batched", "unbatched"):
        stats = results[mode]
        pct = stats["latency_seconds"]
        print(f"[{mode}] {stats['throughput_rps']:.0f} req/s "
              f"(p50 {pct['p50'] * 1000:.1f} ms, "
              f"p95 {pct['p95'] * 1000:.1f} ms, "
              f"p99 {pct['p99'] * 1000:.1f} ms, "
              f"{stats['requests']} requests)")
    print(f"[tracing] {traced['throughput_rps']:.0f} req/s at "
          f"sample_rate={trace_sample} "
          f"({trace_overhead_pct:+.1f}% vs tracing disabled)")
    print(f"[serving] micro-batching speedup {speedup:.2f}x "
          f"(target >= {SPEEDUP_TARGET}x) -> {RESULTS_PATH.name}")

    assert speedup >= SPEEDUP_TARGET, (
        f"micro-batching speedup {speedup:.2f}x below the "
        f"{SPEEDUP_TARGET}x bar"
    )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shorter run for CI")
    args = parser.parse_args()
    run_bench(smoke=args.smoke)


if __name__ == "__main__":
    main()
