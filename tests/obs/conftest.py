"""Obs test fixtures: keep the process-global telemetry state clean."""

from __future__ import annotations

import pytest

from repro.obs import default_registry, enable_metrics, enable_tracing, set_sink


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Reset the registry, sink and trace state around every obs test."""
    registry = default_registry()
    previous = enable_metrics(False)
    registry.reset()
    prev_sink = set_sink(None)
    prev_trace = enable_tracing(False)
    yield registry
    enable_metrics(previous)
    registry.reset()
    set_sink(prev_sink)
    enable_tracing(prev_trace if prev_trace is not None else False)
