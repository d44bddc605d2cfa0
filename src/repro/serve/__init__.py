"""Online serving: incremental flow state, micro-batching, HTTP front end.

The offline pipeline trains on a frozen trip log; this package is the
online half of the paper's train-offline/predict-online deployment
story (Sec. VII-I), built in three layers:

* :mod:`repro.serve.state` — :class:`FlowStateStore` ingests individual
  trip events and incrementally maintains the short-/long-term flow
  windows the model samples, entry for entry equal to the batch
  :func:`~repro.data.flows.build_flow_slots` path.
* :mod:`repro.serve.service` — :class:`PredictionService` wraps a
  loaded STGNN-DJD behind the forward-only fast path with request
  micro-batching, bounded-queue backpressure, a per-slot forecast
  cache, and atomic checkpoint hot-reload.
* :mod:`repro.serve.http` — a stdlib ``HTTPServer`` with parked
  handler threads exposing ``/predict``, ``/ingest``, ``/healthz``,
  ``/metrics`` and ``/admin/reload``; ``python -m repro.serve`` boots
  it from the command line.

One city is one store and one service, as in the paper: a single model
forecasts every station in one forward pass.

Quickstart (in-process)::

    from repro.serve import PredictionService, ServiceConfig

    service = PredictionService.for_dataset(model, dataset)
    with service:
        service.store.ingest(trip)           # stream events in
        forecast = service.predict([3, 7])   # bikes, next slot
"""

from repro.serve.state import FlowStateConfig, FlowStateStore
from repro.serve.service import (
    Forecast,
    PredictionService,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.serve.http import ServingHTTPServer, make_server

__all__ = [
    "FlowStateConfig",
    "FlowStateStore",
    "Forecast",
    "PredictionService",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ServiceStopped",
    "ServingHTTPServer",
    "make_server",
]
