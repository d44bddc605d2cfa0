"""Injected serving failures: degraded forecasts, torn reloads, overload.

The degraded-serving contract of ``serve/service.py``: failures answer
requests anyway, honestly flagged. A forward failure re-serves the last
finalized forecast with ``stale=True``; an unloadable checkpoint on disk
keeps the old weights serving with ``stale=True`` until a good one
lands; a full admission queue rejects with ``ServiceOverloaded`` instead
of queueing unboundedly.
"""

from __future__ import annotations

import os
import struct
import threading
import zipfile

import numpy as np
import pytest

from repro.core import STGNNDJD, save_checkpoint
from repro.core.persistence import CheckpointCorruptError
from repro.faults import FaultPlan, InjectedFault, injected
from repro.obs import default_registry, metrics_scope
from repro.obs.quality import QualityConfig
from repro.serve import (
    FlowStateStore,
    PredictionService,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.serve.service import RETRY_AFTER_SECONDS, RETRY_JITTER, _Request


@pytest.fixture(scope="module")
def served_model(tiny_dataset):
    return STGNNDJD.from_dataset(tiny_dataset, seed=3)


def sync_service(model, dataset, **config_kwargs) -> PredictionService:
    """An unstarted service answering on the calling thread."""
    return PredictionService.for_dataset(
        model, dataset, config=ServiceConfig(**config_kwargs)
    )


class TestStaleFallback:
    def test_forward_failure_serves_last_good_as_stale(
        self, served_model, tiny_dataset
    ):
        service = sync_service(served_model, tiny_dataset)
        with metrics_scope():
            registry = default_registry()
            registry.reset()
            registry.enabled = True
            good = service.predict()
            assert good.stale is False

            # A new slot, so the faulted predict misses the forecast cache.
            service.store.advance_to(service.store.frontier + 1)
            plan = FaultPlan(seed=0).on("serve.forecast", at=1)
            with injected(plan):
                degraded = service.predict()
            assert degraded.stale is True
            assert degraded.slot == good.slot
            np.testing.assert_array_equal(degraded.demand, good.demand)
            np.testing.assert_array_equal(degraded.supply, good.supply)
            assert registry.counter("serve.stale_served").value == 1

        # Disarmed again: fresh forecasts, no stale flag.
        assert service.predict().stale is False

    def test_forward_failure_with_no_fallback_raises(
        self, served_model, tiny_dataset
    ):
        service = sync_service(served_model, tiny_dataset)
        plan = FaultPlan(seed=0).on("serve.forecast", at=1)
        with injected(plan):
            with pytest.raises(InjectedFault):
                service.predict()

    def test_dispatcher_survives_an_injected_exception(
        self, served_model, tiny_dataset
    ):
        # "serve.dispatch" fires before the forecast: the error is
        # forwarded to that batch's callers, and the dispatch loop keeps
        # serving the next batch.
        service = sync_service(served_model, tiny_dataset)
        plan = FaultPlan(seed=0).on("serve.dispatch", at=1)
        with service:
            with injected(plan):
                with pytest.raises(InjectedFault):
                    service.predict()
            assert service.running
            assert service.predict().stale is False


class TestForecastCacheKey:
    def test_rollover_during_forecast_keys_the_slot_it_served(
        self, served_model, tiny_dataset
    ):
        # A trip landing in the next slot between the cache lookup and
        # the window read rolls the frontier over mid-forecast. The
        # forecast is for the new slot, so it must be cached, labelled
        # and recorded under the new slot and store version; the next
        # predict at that slot is then a cache hit, not a second forward.
        service = sync_service(
            served_model, tiny_dataset,
            quality=QualityConfig(window=16, min_samples=1),
        )
        store = service.store
        start = store.frontier
        slot_seconds = store.config.slot_seconds

        def next_slot_trip(site):
            t0 = (start + 1) * slot_seconds
            store.ingest_event(0, 1, t0 + 1.0, t0 + 2.0)

        plan = FaultPlan(seed=0).on(
            "serve.forecast", action="call", at=1, callback=next_slot_trip
        )
        with injected(plan):
            first = service.predict()
        assert store.frontier == start + 1
        assert first.slot == start + 1 and not first.cached
        assert service.quality._pending[(start + 1, 0)][3] == store.version

        second = service.predict()
        assert second.slot == start + 1 and second.cached
        np.testing.assert_array_equal(second.demand, first.demand)


class TestTornCheckpointReload:
    def _boot(self, dataset, path, poll=None, seed=1) -> PredictionService:
        save_checkpoint(STGNNDJD.from_dataset(dataset, seed=seed), path)
        return PredictionService.from_checkpoint(
            path,
            FlowStateStore.from_dataset(dataset),
            dataset.demand_normalizer,
            dataset.supply_normalizer,
            config=ServiceConfig(
                checkpoint_path=str(path), reload_poll_seconds=poll
            ),
        )

    def test_manual_reload_of_corrupt_checkpoint_keeps_old_weights(
        self, tiny_dataset, tmp_path
    ):
        path = tmp_path / "model.npz"
        service = self._boot(tiny_dataset, path)
        before = service.predict()

        # Flip a byte inside a weight member's CRC-protected payload
        # (a fixed file offset is layout-dependent: it can land in dead
        # zip local-header metadata that no reader ever checks).
        flipped = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = next(
                i for i in archive.infolist()
                if i.filename == "predictor.weight.npy"
            )
        name_len, extra_len = struct.unpack(
            "<HH", flipped[info.header_offset + 26:info.header_offset + 30]
        )
        payload = info.header_offset + 30 + name_len + extra_len
        flipped[payload + 80] ^= 0xFF  # past the npy magic, inside data
        path.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointCorruptError):
            service.reload()
        assert service.model_version == 0
        assert service.reload_failed

        degraded = service.predict()
        assert degraded.stale is True  # honest: weights lag the disk file
        np.testing.assert_array_equal(degraded.demand, before.demand)

        # A good checkpoint clears the degradation.
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=2), path)
        service.reload()
        assert service.model_version == 1
        assert not service.reload_failed
        recovered = service.predict()
        assert recovered.stale is False
        assert not np.array_equal(recovered.demand, before.demand)

    def test_watcher_rides_out_a_mid_write_checkpoint(
        self, tiny_dataset, tmp_path
    ):
        path = tmp_path / "model.npz"
        service = self._boot(tiny_dataset, path, poll=0.02)
        with service:
            before = service.predict()
            assert before.stale is False

            # A foreign non-atomic writer tears the file mid-write: the
            # watcher's reload fails and serving degrades to stale.
            good = path.read_bytes()
            path.write_bytes(good[: len(good) // 2])
            assert service.reload_error_event.wait(timeout=10.0)
            degraded = service.predict()
            assert degraded.stale is True
            assert degraded.model_version == 0
            np.testing.assert_array_equal(degraded.demand, before.demand)

            # The writer finishes: a complete checkpoint lands (atomic
            # rename), the watcher reloads it, staleness clears.
            save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=2), path)
            stat = os.stat(path)
            os.utime(path, (stat.st_atime, stat.st_mtime + 10.0))
            assert service.reload_ok_event.wait(timeout=10.0)
            recovered = service.predict()
            assert recovered.stale is False
            assert recovered.model_version == 1
            assert not np.array_equal(recovered.demand, before.demand)


class TestOverload:
    def test_full_queue_rejects_deterministically(
        self, served_model, tiny_dataset
    ):
        service = sync_service(
            served_model, tiny_dataset,
            max_batch=1, queue_depth=2,
        )
        picked = threading.Event()
        release = threading.Event()
        plan = FaultPlan(seed=0).on(
            "serve.dispatch", action="call", at=1,
            callback=lambda site: (picked.set(), release.wait(timeout=10.0)),
        )
        backlog = [_Request(None), _Request(None)]
        with injected(plan):
            with service:
                first = _Request(None)
                service._queue.put_nowait(first)
                assert picked.wait(timeout=5.0)  # dispatcher wedged on rq 1
                for request in backlog:  # queue (depth 2) fills behind it
                    service._queue.put_nowait(request)
                with pytest.raises(ServiceOverloaded) as excinfo:
                    service.predict()
                # Jittered within the bounded band, never below base.
                assert RETRY_AFTER_SECONDS <= excinfo.value.retry_after <= (
                    RETRY_AFTER_SECONDS * (1.0 + RETRY_JITTER))
                release.set()
                # Backpressure, not loss: the queued requests all finish.
                for request in [first, *backlog]:
                    assert request.done.wait(timeout=10.0)
                    assert request.error is None
                    assert request.forecast is not None
