"""Metrics registry: semantics, disabled no-op, snapshot."""

from __future__ import annotations

import pytest

from repro.obs import Registry, metrics_scope, prometheus_text
from repro.obs.registry import TIME_BUCKETS


def enabled_registry() -> Registry:
    return Registry(enabled=True)


class TestCounter:
    def test_accumulates(self):
        reg = enabled_registry()
        counter = reg.counter("requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_same_name_same_object(self):
        reg = enabled_registry()
        assert reg.counter("a") is reg.counter("a")

    def test_negative_increment_rejected(self):
        reg = enabled_registry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_kind_mismatch_raises(self):
        reg = enabled_registry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")


class TestGauge:
    def test_last_write_wins(self):
        reg = enabled_registry()
        gauge = reg.gauge("utilisation")
        gauge.set(0.25)
        gauge.set(0.75)
        assert gauge.value == 0.75


class TestHistogram:
    def test_bucketing(self):
        reg = enabled_registry()
        hist = reg.histogram("latency", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 50.0):
            hist.observe(value)
        # <=1, <=10, +Inf (bounds are inclusive upper edges)
        assert hist.bucket_counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(56.5)
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.mean == pytest.approx(56.5 / 4)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            enabled_registry().histogram("h", bounds=(2.0, 1.0))

    def test_conflicting_bounds_rejected(self):
        reg = enabled_registry()
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_timer_uses_time_buckets(self):
        reg = enabled_registry()
        timer = reg.timer("step")
        assert timer.bounds == TIME_BUCKETS
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.sum >= 0


class TestDisabled:
    def test_recording_is_a_noop(self):
        reg = Registry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 0.0
        assert snap["g"]["value"] == 0.0
        assert snap["h"]["count"] == 0

    def test_flag_flip_reactivates_existing_metrics(self):
        reg = Registry(enabled=False)
        counter = reg.counter("c")
        counter.inc()
        reg.enabled = True
        counter.inc()
        assert counter.value == 1.0

    def test_metrics_scope_restores(self):
        from repro.obs import default_registry, metrics_enabled

        assert not metrics_enabled()
        with metrics_scope(True) as reg:
            assert reg is default_registry()
            assert metrics_enabled()
        assert not metrics_enabled()


class TestSnapshot:
    def test_empty_histogram_min_max_none(self):
        reg = enabled_registry()
        reg.histogram("h")
        snap = reg.snapshot()["h"]
        assert snap["min"] is None and snap["max"] is None


class TestPrometheus:
    def test_exposition_format(self):
        reg = enabled_registry()
        reg.counter("trainer.samples").inc(5)
        reg.gauge("pool.hit-rate").set(0.5)
        hist = reg.histogram("latency", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = prometheus_text(reg)
        assert "# TYPE trainer_samples_total counter" in text
        assert "trainer_samples_total 5.0" in text
        assert "pool_hit_rate 0.5" in text
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_count 2" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(Registry()) == ""
