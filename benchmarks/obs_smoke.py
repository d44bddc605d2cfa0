"""Observability smoke gate: instrumented training + traced serving.

Stage 1 runs a 2-epoch instrumented training on a tiny synthetic city,
then checks the full telemetry contract that `repro.obs` documents:

* the JSONL event stream validates against the event schema
  (``validate_event``) line by line;
* per-epoch losses in the event stream and in the persisted
  :class:`RunReport` match the returned :class:`TrainingHistory`
  exactly (bit-for-bit, not approximately);
* registry metrics made it into the report (sample counter, epoch
  span timers);
* the ``python -m repro.obs.report`` CLI renders both the report and
  the raw event stream without error.

Stage 2 boots the HTTP serving stack with tracing and quality
monitoring armed and checks the request-tracing + quality contract:

* a ``/predict`` request carrying a W3C ``traceparent`` header comes
  back on the caller's trace, and the ``python -m repro.obs.trace``
  CLI reconstructs its complete timeline (HTTP handling, queue wait,
  batch assembly, forward, serialization) from the JSONL stream;
* ingesting trips past the forecast slot reconciles the captured
  forecast against the realized flows, and the rolling RMSE/MAE the
  ``/status`` endpoint reports matches an offline
  :mod:`repro.eval.metrics` recomputation on the same pairs to 1e-12.

Global telemetry state (registry enabled flag, active sink) must be
back to its defaults afterwards — instrumentation is strictly scoped
to the run.

Usage::

    PYTHONPATH=src python benchmarks/obs_smoke.py [--out-dir DIR]

Exit status 0 on success; any contract violation raises. When
``--out-dir`` is given the run artifacts (``*.events.jsonl``,
``*.report.json``) are left there for upload; otherwise a temporary
directory is used and cleaned up.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401  (resolves via PYTHONPATH when set)
except ImportError:  # pragma: no cover - direct invocation convenience
    sys.path.insert(0, str(REPO_ROOT / "src"))


EPOCHS = 2
RUN_ID = "obs-smoke"


def run_smoke(out_dir: Path) -> None:
    from repro import STGNNDJD, SyntheticCityConfig, Trainer, TrainingConfig, generate_city
    from repro.obs import (
        ObservabilityConfig,
        RunReport,
        active_sink,
        default_registry,
        read_events,
    )

    dataset = generate_city(SyntheticCityConfig.tiny(days=8, num_stations=6), seed=7)
    model = STGNNDJD.from_dataset(dataset, seed=3)
    config = TrainingConfig(
        epochs=EPOCHS,
        batch_size=8,
        seed=0,
        metrics=ObservabilityConfig(out_dir=str(out_dir), run_id=RUN_ID),
    )
    print(f"== instrumented training: {EPOCHS} epochs on synthetic tiny city ==")
    history = Trainer(model, dataset, config).fit()

    events_path = out_dir / f"{RUN_ID}.events.jsonl"
    report_path = out_dir / f"{RUN_ID}.report.json"
    assert events_path.exists(), f"missing event stream {events_path}"
    assert report_path.exists(), f"missing run report {report_path}"

    # Schema validation happens inside read_events(validate=True): any
    # malformed line raises with its path:lineno.
    events = read_events(events_path, validate=True)
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end", kinds
    assert kinds.count("epoch") == EPOCHS, kinds
    print(f"   {len(events)} events validated against schema")

    epoch_events = [e for e in events if e["kind"] == "epoch"]
    assert [e["data"]["train_loss"] for e in epoch_events] == history.train_loss
    assert [e["data"]["val_loss"] for e in epoch_events] == history.val_loss

    report = RunReport.load(report_path)
    assert [r.train_loss for r in report.epochs] == history.train_loss
    assert [r.val_loss for r in report.epochs] == history.val_loss
    assert report.metrics["trainer.samples"]["value"] > 0
    assert report.metrics["span.epoch.seconds"]["count"] == EPOCHS
    print("   report/event losses match TrainingHistory exactly")

    assert not default_registry().enabled, "registry left enabled after fit"
    assert active_sink() is None, "event sink left installed after fit"

    # The report CLI must render both artifact kinds without error.
    for target in (report_path, events_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", str(target)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, f"report CLI failed on {target}:\n{proc.stderr}"
    print("   report CLI renders report + event stream")
    print(f"\n{proc.stdout}" if proc.stdout else "")


CLIENT_TRACEPARENT = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"


def run_serving_smoke(out_dir: Path) -> None:
    import json
    import threading
    import urllib.request

    import numpy as np

    from repro import STGNNDJD, SyntheticCityConfig, generate_city
    from repro.eval import metrics as paper_metrics
    from repro.obs import JsonlExporter, active_sink, set_sink
    from repro.obs.quality import QualityConfig
    from repro.obs.trace import TraceConfig, enable_tracing, parse_traceparent
    from repro.serve import PredictionService, ServiceConfig, make_server

    print("\n== traced serving: HTTP requests -> trace CLI + quality ==")
    dataset = generate_city(SyntheticCityConfig.tiny(days=8, num_stations=6), seed=7)
    model = STGNNDJD.from_dataset(dataset, seed=3)

    events_path = out_dir / "serve.events.jsonl"
    sink = JsonlExporter(events_path)
    prev_sink = set_sink(sink)
    prev_trace = enable_tracing(TraceConfig())
    service = PredictionService.for_dataset(
        model, dataset,
        config=ServiceConfig(quality=QualityConfig(window=64, min_samples=1)),
    )
    http_server = make_server(service, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    service.start()
    host, port = http_server.server_address[:2]
    base = f"http://{host}:{port}"

    def call(path, payload=None, traceparent=None):
        request = urllib.request.Request(
            base + path,
            data=None if payload is None else json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"} if payload else {},
        )
        if traceparent:
            request.add_header("traceparent", traceparent)
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return (json.loads(response.read()),
                    response.headers.get("traceparent"))

    try:
        body, echoed = call("/predict", traceparent=CLIENT_TRACEPARENT)
        client = parse_traceparent(CLIENT_TRACEPARENT)
        assert parse_traceparent(echoed).trace_id == client.trace_id, (
            "response traceparent left the caller's trace"
        )
        slot = body["slot"]
        pred_demand = np.asarray(body["demand"], dtype=np.float64)
        pred_supply = np.asarray(body["supply"], dtype=np.float64)
        if pred_demand.ndim == 2:  # multi-horizon model: score h=0
            pred_demand, pred_supply = pred_demand[:, 0], pred_supply[:, 0]
        print(f"   traced /predict answered for slot {slot}")

        # Close the forecast slot: trips landing one slot ahead roll the
        # frontier over, reconciling the captured forecast on the way.
        next_start = (slot + 1) * dataset.config.slot_seconds + 1.0
        ingest, _ = call("/ingest", payload={"trips": [
            {"origin": 0, "destination": 1,
             "start_time": next_start, "end_time": next_start + 300.0},
        ]}, traceparent=CLIENT_TRACEPARENT)
        assert ingest["accepted"] == 1, ingest
        assert ingest["frontier"] > slot, "frontier did not roll over"

        status, _ = call("/status")
        quality = status["quality"]
        assert quality["reconciled"] >= 1, quality
        window = quality["windows"]["0"]

        true_demand, true_supply = service.store.realized(slot)
        offline_rmse = paper_metrics.rmse(
            true_demand[None], pred_demand[None],
            true_supply[None], pred_supply[None],
        )
        offline_mae = paper_metrics.mae(
            true_demand[None], pred_demand[None],
            true_supply[None], pred_supply[None],
        )
        assert abs(window["rmse"] - offline_rmse) <= 1e-12, (
            f"online rmse {window['rmse']} != offline {offline_rmse}"
        )
        assert abs(window["mae"] - offline_mae) <= 1e-12, (
            f"online mae {window['mae']} != offline {offline_mae}"
        )
        assert status["slo"]["objectives"], status["slo"]
        print(f"   quality window matches eval.metrics offline "
              f"(rmse {window['rmse']:.6f}, mae {window['mae']:.6f})")
    finally:
        service.stop()
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)
        enable_tracing(prev_trace if prev_trace is not None else False)
        set_sink(prev_sink)
        sink.close()

    assert active_sink() is None, "event sink left installed after serving"

    # The trace CLI must reconstruct the request's complete timeline.
    for args in ([str(events_path), "--list"],
                 [str(events_path), "--trace", client.trace_id]):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.trace", *args],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, f"trace CLI failed:\n{proc.stderr}"
    timeline = proc.stdout
    for span_name in ("http.predict", "serve.queue", "↳ serve.batch",
                      "serve.forward", "http.serialize"):
        assert span_name in timeline, (
            f"span {span_name!r} missing from reconstructed timeline:\n"
            f"{timeline}"
        )
    print("   trace CLI reconstructed the full request timeline:")
    print("\n".join("   " + line for line in timeline.splitlines()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="keep run artifacts here (default: temp dir)")
    args = parser.parse_args()

    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        run_smoke(args.out_dir)
        run_serving_smoke(args.out_dir)
        print(f"artifacts kept in {args.out_dir}")
    else:
        with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
            run_smoke(Path(tmp))
            run_serving_smoke(Path(tmp))
    print("obs smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
