"""``python -m repro.serve`` — boot the prediction HTTP server.

Serves a checkpoint (or a freshly initialised model when none is given)
over a synthetic city whose history warm-starts the flow-state store::

    # train + checkpoint first, e.g. examples/train_save_deploy.py
    python -m repro.serve --checkpoint /tmp/stgnn.npz --port 8973

    curl localhost:8973/healthz
    curl -X POST localhost:8973/ingest -d \\
        '{"trips": [{"origin": 0, "destination": 3,
                     "start_time": 1210000, "end_time": 1210600}]}'
    curl 'localhost:8973/predict?stations=0,3'
    curl localhost:8973/metrics
    curl -X POST localhost:8973/admin/reload

The ``--city`` options regenerate the same deterministic synthetic
datasets the examples use, so a checkpoint trained by
``examples/train_save_deploy.py`` matches ``--city deploy`` here.
"""

from __future__ import annotations

import argparse

from repro.core.model import STGNNDJD
from repro.core.persistence import load_stgnn
from repro.data.synthetic import SyntheticCityConfig, generate_city
from repro.obs.events import JsonlExporter, set_sink
from repro.obs.quality import QualityConfig
from repro.obs.registry import enable_metrics
from repro.obs.slo import SLOConfig
from repro.obs.trace import TraceConfig, enable_tracing
from repro.serve.http import make_server
from repro.serve.service import PredictionService, ServiceConfig
from repro.utils import get_logger, set_global_level

logger = get_logger("serve.cli")


def _city_config(name: str) -> SyntheticCityConfig:
    if name == "tiny":
        return SyntheticCityConfig.tiny()
    if name == "la":
        return SyntheticCityConfig.la_like(days=14)
    if name == "chicago":
        return SyntheticCityConfig.chicago_like(days=14)
    if name == "deploy":
        # Mirrors examples/train_save_deploy.py so its checkpoint loads.
        return SyntheticCityConfig(
            name="deploy-city", num_stations=12, days=14,
            trips_per_day=70.0 * 12, slot_seconds=1800.0,
            short_window=48, long_days=3,
        )
    raise ValueError(f"unknown city preset {name!r}")


def _validate_args(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> None:
    """Reject inconsistent flag combinations with a clear parser error.

    Everything here would otherwise surface later as a traceback from
    some config ``__post_init__`` (or, worse, as a server that never
    answers) — the CLI contract is that bad flags die at parse time
    with the flag's name in the message.
    """
    if args.max_batch < 1:
        parser.error(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.queue_depth < 1:
        parser.error(f"--queue-depth must be >= 1, got {args.queue_depth}")
    if args.reload_poll is not None and args.reload_poll <= 0:
        parser.error(f"--reload-poll must be > 0, got {args.reload_poll}")
    if not 0.0 <= args.trace_sample <= 1.0:
        parser.error(
            f"--trace-sample must be in 0..1, got {args.trace_sample}"
        )
    if args.slo_p99 <= 0:
        parser.error(f"--slo-p99 must be > 0, got {args.slo_p99}")
    if args.quality_window is not None:
        if not args.quality:
            parser.error("--quality-window requires --quality")
        if args.quality_window < 1:
            parser.error(
                f"--quality-window must be >= 1, got {args.quality_window}"
            )
    if args.trace and not args.events:
        parser.error("--trace requires --events (spans need a sink)")


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    quality_window = (
        256 if args.quality_window is None else args.quality_window
    )
    return ServiceConfig(
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        checkpoint_path=args.checkpoint,
        reload_poll_seconds=args.reload_poll if args.checkpoint else None,
        quality=(
            QualityConfig(window=quality_window)
            if args.quality else None
        ),
        slo=SLOConfig(p99_latency_seconds=args.slo_p99),
    )


def build_service(args: argparse.Namespace) -> PredictionService:
    """The prediction service over the chosen city's warm-started store."""
    dataset = generate_city(_city_config(args.city), seed=args.seed)
    if args.checkpoint:
        model = load_stgnn(args.checkpoint)
    else:
        logger.warning("no --checkpoint given: serving an untrained model")
        model = STGNNDJD.from_dataset(dataset, seed=args.seed)
    return PredictionService.for_dataset(
        model, dataset, config=_service_config(args)
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8973)
    parser.add_argument("--checkpoint", default=None,
                        help="model checkpoint (.npz); watched for hot-reload")
    parser.add_argument("--city", default="deploy",
                        choices=("deploy", "tiny", "la", "chicago"),
                        help="synthetic city whose history warms the store")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--max-batch", type=int, default=64,
                        help="most already-queued requests one forward "
                             "serves (1: a forward per request)")
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--reload-poll", type=float, default=2.0,
                        help="checkpoint mtime poll interval, seconds")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="write the JSONL event stream (metrics "
                             "events + trace spans) to this file")
    parser.add_argument("--events-max-mb", type=float, default=64.0,
                        help="rotate the events file beyond this size")
    parser.add_argument("--trace", action="store_true",
                        help="enable request tracing (spans go to --events)")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        help="fraction of root traces recorded, 0..1")
    parser.add_argument("--quality", action="store_true",
                        help="enable continuous forecast-quality monitoring")
    parser.add_argument("--quality-window", type=int, default=None,
                        help="reconciled slots per rolling quality window "
                             "(requires --quality; default 256)")
    parser.add_argument("--slo-p99", type=float, default=0.25,
                        help="p99 request-latency objective, seconds")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    _validate_args(parser, args)

    if args.verbose:
        set_global_level("DEBUG")
    enable_metrics()
    if args.events:
        set_sink(JsonlExporter(
            args.events,
            max_bytes=int(args.events_max_mb * 1024 * 1024),
        ))
    if args.trace:
        enable_tracing(TraceConfig(sample_rate=args.trace_sample))
    service = build_service(args)
    server = make_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    with service:
        logger.info("serving on http://%s:%d (frontier slot %d)",
                    host, port, service.store.frontier)
        print(f"serving on http://{host}:{port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()


if __name__ == "__main__":
    main()
