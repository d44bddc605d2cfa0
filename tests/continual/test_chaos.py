"""Chaos tests for the ``continual.*`` fault seams.

The invariants the continual loop must keep under injected failure:

* a crash at extract/retrain/evaluate leaves the live deployment —
  checkpoint file, training snapshot, store, model version — untouched;
* a failed promotion (the service's reload raises) is rolled back: the
  previous weights are restored on disk and the service is reloaded
  onto them, so it stops flagging responses stale;
* a corrupt candidate artifact (bit rot between write and reload)
  never reaches the service — the pre-flight schema/corruption gate
  from the checkpoint layer stops it and the rollback ladder runs;
* a candidate with non-finite weights fails the shadow evaluation and
  is never handed to ``reload``.
"""

import shutil

import numpy as np
import pytest

from repro.core.persistence import (
    load_quality_baseline,
    load_state,
    load_training_snapshot,
)
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.synthetic import SyntheticCityConfig, generate_city
from repro.core.model import STGNNDJD
from repro.core.persistence import save_checkpoint, save_training_snapshot
from repro.continual import (
    ContinualConfig,
    ContinualLearner,
    PromotionRolledBack,
)
from repro.faults import FaultPlan, InjectedFault, injected
from repro.obs.events import JsonlExporter, read_events, sink_scope
from repro.serve.service import PredictionService
from repro.serve.state import FlowStateStore

RETAINED = 9 * 24  # tiny-config slots: keep 9 days behind the frontier


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One offline training run shared by every chaos scenario."""
    root = tmp_path_factory.mktemp("trained")
    dataset = generate_city(
        SyntheticCityConfig.tiny(days=10, num_stations=6), seed=42
    )
    model = STGNNDJD.from_dataset(
        dataset, seed=3, fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0
    )
    trainer = Trainer(
        model, dataset, TrainingConfig(epochs=1, batch_size=16, seed=0)
    )
    history = trainer.fit(1)
    save_checkpoint(model, root / "model.npz")
    save_training_snapshot(
        root / "snap.npz", trainer.capture_snapshot(epoch=0, history=history)
    )
    return dataset, root


def _learner(dataset, artifacts, tmp_path):
    ckpt = tmp_path / "model.npz"
    snap = tmp_path / "snap.npz"
    shutil.copy(artifacts / "model.npz", ckpt)
    shutil.copy(artifacts / "snap.npz", snap)
    from repro.core.persistence import load_stgnn

    model = load_stgnn(ckpt)
    store = FlowStateStore.from_dataset(dataset, retained_slots=RETAINED)
    deploy = PredictionService(
        model, store,
        dataset.demand_normalizer, dataset.supply_normalizer,
    ).start()
    config = ContinualConfig(
        checkpoint_path=str(ckpt), snapshot_path=str(snap),
        train_days=7, retrain_epochs=1, holdback_slots=6,
    )
    learner = ContinualLearner(
        store, deploy, dataset.registry, config,
        demand_normalizer=dataset.demand_normalizer,
        supply_normalizer=dataset.supply_normalizer,
        flow_scale=dataset.flow_scale,
    )
    return learner, deploy, store, ckpt, snap


def _deployment_fingerprint(deploy, store, ckpt, snap):
    return (
        deploy.model_version,
        store.frontier,
        store.version,
        ckpt.read_bytes(),
        snap.read_bytes(),
    )


@pytest.mark.parametrize(
    "site", ["continual.extract", "continual.retrain", "continual.evaluate"]
)
def test_crash_before_promotion_leaves_deployment_untouched(
    trained, tmp_path, site
):
    dataset, artifacts = trained
    learner, deploy, store, ckpt, snap = _learner(dataset, artifacts, tmp_path)
    try:
        before = _deployment_fingerprint(deploy, store, ckpt, snap)
        with injected(FaultPlan(seed=0).on(site, at=1)):
            with pytest.raises(InjectedFault):
                learner.run_cycle()
        assert _deployment_fingerprint(deploy, store, ckpt, snap) == before
        assert learner.promotions == 0
        # The loop is not wedged: the next cycle runs clean.
        result = learner.run_cycle()
        assert result.eval_samples == 6
    finally:
        deploy.stop()


def test_crash_at_promote_seam_leaves_checkpoint_untouched(trained, tmp_path):
    """The promote seam fires before the checkpoint write."""
    dataset, artifacts = trained
    learner, deploy, store, ckpt, snap = _learner(dataset, artifacts, tmp_path)
    try:
        before = _deployment_fingerprint(deploy, store, ckpt, snap)
        with injected(FaultPlan(seed=0).on("continual.promote", at=1)):
            with pytest.raises(InjectedFault):
                learner.run_cycle()
        assert _deployment_fingerprint(deploy, store, ckpt, snap) == before
    finally:
        deploy.stop()


def _assert_old_weights_on_disk(ckpt, old_state):
    restored = load_state(ckpt)
    assert restored.keys() == old_state.keys()
    for name in old_state:
        assert np.array_equal(restored[name], old_state[name]), name


def test_failed_reload_rolls_back_and_stops_serving_stale(trained, tmp_path):
    dataset, artifacts = trained
    learner, deploy, store, ckpt, snap = _learner(dataset, artifacts, tmp_path)
    try:
        old_state = load_state(ckpt)
        old_baseline = load_quality_baseline(ckpt)
        old_snapshot_bytes = snap.read_bytes()
        before = deploy.predict(None)
        events_path = tmp_path / "events.jsonl"
        # The promotion's reload raises: the service keeps the old
        # weights but marks them stale until a reload succeeds.
        plan = FaultPlan(seed=0).on("serve.reload", at=1)
        with sink_scope(JsonlExporter(events_path)) as sink:
            with injected(plan):
                with pytest.raises(PromotionRolledBack):
                    learner.run_cycle()
            sink.close()
        assert plan.fired
        _assert_old_weights_on_disk(ckpt, old_state)
        assert load_quality_baseline(ckpt) == old_baseline
        assert snap.read_bytes() == old_snapshot_bytes
        # The rollback reloaded the restored checkpoint: the same weights
        # serve (bitwise the same forecast), no longer flagged stale.
        assert not deploy.reload_failed
        # Version 1 is that reload of the old weights; the candidate's
        # reload raised before it loaded anything.
        assert deploy.model_version == 1
        after = deploy.predict(None)
        assert after.stale is False
        assert np.array_equal(after.demand, before.demand)
        assert np.array_equal(after.supply, before.supply)
        names = [e["name"] for e in read_events(events_path)]
        assert "continual.shadow_eval" in names
        assert "continual.rolled_back" in names
        assert "continual.promoted" not in names
    finally:
        deploy.stop()


def test_corrupt_candidate_never_reaches_the_service(trained, tmp_path):
    dataset, artifacts = trained
    learner, deploy, store, ckpt, snap = _learner(dataset, artifacts, tmp_path)
    try:
        old_state = load_state(ckpt)
        version_before = deploy.model_version

        def truncate(path):
            data = ckpt.read_bytes()
            ckpt.write_bytes(data[: len(data) // 2])
            return path

        plan = FaultPlan(seed=0).on(
            "continual.promote.artifact", action="call", callback=truncate
        )
        with injected(plan):
            with pytest.raises(PromotionRolledBack, match="corrupt"):
                learner.run_cycle()
        # The service never saw the corrupt artifact: no reload ran, and
        # the restored checkpoint loads cleanly with the old weights.
        assert deploy.model_version == version_before
        assert not deploy.reload_failed
        assert deploy.predict(None).stale is False
        _assert_old_weights_on_disk(ckpt, old_state)
        load_training_snapshot(snap)  # snapshot untouched and readable
    finally:
        deploy.stop()


def test_non_finite_candidate_is_held_back(trained, tmp_path, monkeypatch):
    dataset, artifacts = trained
    learner, deploy, store, ckpt, snap = _learner(dataset, artifacts, tmp_path)
    from repro.continual import loop

    class PoisonedTrainer(Trainer):
        def fit(self, *args, **kwargs):
            history = super().fit(*args, **kwargs)
            for param in self.model.parameters():
                param.data[...] = np.nan
            return history

    def reload_spy(path=None):
        raise AssertionError("a non-finite candidate reached reload")

    monkeypatch.setattr(loop, "Trainer", PoisonedTrainer)
    monkeypatch.setattr(deploy, "reload", reload_spy)
    try:
        before = _deployment_fingerprint(deploy, store, ckpt, snap)
        result = learner.run_cycle()
        assert not np.isfinite(result.candidate_rmse)
        assert np.isfinite(result.live_rmse)
        assert result.promoted is False
        assert learner.promotions == 0
        assert _deployment_fingerprint(deploy, store, ckpt, snap) == before
    finally:
        deploy.stop()
