"""Injected training interrupts: snapshot + auto-resume, bitwise.

The resilience contract of ``core/trainer.py``: with
``TrainingConfig.snapshot_path`` set, killing ``fit()`` at any point and
rerunning it resumes from the last completed epoch and — for a
deterministic model — produces exactly the weights and loss history of a
run that was never interrupted.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.model import STGNNDJD
from repro.core.persistence import (
    CheckpointCorruptError,
    CheckpointSchemaError,
    load_training_snapshot,
    save_training_snapshot,
)
from repro.core.trainer import Trainer, TrainingConfig
from repro.faults import FaultPlan, InjectedFault, injected

EPOCHS = 3


def make_trainer(
    dataset, snapshot_path=None, resume=True, **model_kwargs
) -> Trainer:
    defaults = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)
    defaults.update(model_kwargs)
    model = STGNNDJD.from_dataset(dataset, seed=3, **defaults)
    config = TrainingConfig(
        epochs=EPOCHS, batch_size=8, seed=5, patience=10,
        snapshot_path=snapshot_path, resume=resume,
    )
    return Trainer(model, dataset, config)


@pytest.fixture(scope="module")
def baseline(mini_dataset):
    """The uninterrupted serial run every resumed run must reproduce."""
    trainer = make_trainer(mini_dataset)
    history = trainer.fit()
    return history, trainer.model.state_dict()


def assert_continues_baseline(baseline, history, trainer):
    base_history, base_state = baseline
    assert history.train_loss == base_history.train_loss  # bitwise
    assert history.val_loss == base_history.val_loss
    assert history.best_epoch == base_history.best_epoch
    state = trainer.model.state_dict()
    assert state.keys() == base_state.keys()
    for name in base_state:
        np.testing.assert_array_equal(state[name], base_state[name])


class TestInterruptResume:
    def test_epoch_boundary_interrupt_resumes_bitwise(
        self, mini_dataset, tmp_path, baseline
    ):
        snap = str(tmp_path / "snap.npz")
        plan = FaultPlan(seed=0).on("trainer.epoch", at=2)  # kill entering epoch 1
        injured = make_trainer(mini_dataset, snapshot_path=snap)
        with injected(plan):
            with pytest.raises(InjectedFault):
                injured.fit()
        assert plan.fired and plan.fired[0].site == "trainer.epoch"
        assert os.path.exists(snap)

        resumed = make_trainer(mini_dataset, snapshot_path=snap)
        history = resumed.fit()
        assert_continues_baseline(baseline, history, resumed)

    def test_mid_epoch_interrupt_replays_the_epoch(
        self, mini_dataset, tmp_path, baseline
    ):
        # Interrupt in the middle of epoch 1 (a few batches in): the
        # snapshot from epoch 0 carries the shuffling RNG state, so the
        # resumed run replays epoch 1's permutation from scratch and
        # still lands bitwise on the uninterrupted run.
        train_idx = mini_dataset.split_indices()[0]
        batches_per_epoch = int(np.ceil(len(train_idx) / 8))
        snap = str(tmp_path / "snap.npz")
        plan = FaultPlan(seed=0).on("trainer.batch", at=batches_per_epoch + 2)
        injured = make_trainer(mini_dataset, snapshot_path=snap)
        with injected(plan):
            with pytest.raises(InjectedFault):
                injured.fit()

        resumed = make_trainer(mini_dataset, snapshot_path=snap)
        history = resumed.fit()
        assert_continues_baseline(baseline, history, resumed)

    def test_snapshotting_does_not_change_training(
        self, mini_dataset, tmp_path, baseline
    ):
        trainer = make_trainer(
            mini_dataset, snapshot_path=str(tmp_path / "snap.npz")
        )
        history = trainer.fit()
        assert_continues_baseline(baseline, history, trainer)

    def test_no_temp_files_left_behind(self, mini_dataset, tmp_path):
        snap = tmp_path / "snap.npz"
        make_trainer(mini_dataset, snapshot_path=str(snap)).fit()
        leftovers = glob.glob(str(tmp_path / ".snap.npz.tmp.*"))
        assert leftovers == []
        assert snap.exists()


class TestResumeSafety:
    def test_fingerprint_mismatch_refuses_to_resume(self, mini_dataset, tmp_path):
        snap = str(tmp_path / "snap.npz")
        make_trainer(mini_dataset, snapshot_path=snap).fit()
        other = make_trainer(mini_dataset, snapshot_path=snap, num_heads=1)
        with pytest.raises(CheckpointSchemaError, match="refusing to resume"):
            other.fit()

    @pytest.mark.parametrize("entry", ["resume", "warm_start"])
    @pytest.mark.parametrize("moments", ["adam_m", "adam_v"])
    def test_short_moments_are_rejected_before_any_state_changes(
        self, mini_dataset, tmp_path, moments, entry
    ):
        snap = str(tmp_path / "snap.npz")
        make_trainer(mini_dataset, snapshot_path=snap).fit(1)
        snapshot = load_training_snapshot(snap)
        assert snapshot.adam_step_count > 0
        short = dict(getattr(snapshot, moments))
        short.pop(max(short))
        setattr(snapshot, moments, short)
        save_training_snapshot(snap, snapshot)

        victim = make_trainer(mini_dataset, snapshot_path=snap)
        before = victim.model.state_dict()
        with pytest.raises(CheckpointSchemaError, match="optimizer moments"):
            if entry == "resume":
                victim.fit()
            else:
                victim.warm_start(load_training_snapshot(snap))
        assert victim.optimizer._step_count == 0
        after = victim.model.state_dict()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_corrupt_snapshot_fails_loudly(self, mini_dataset, tmp_path):
        snap = tmp_path / "snap.npz"
        make_trainer(mini_dataset, snapshot_path=str(snap)).fit()
        data = snap.read_bytes()
        snap.write_bytes(data[: len(data) // 2])  # torn by a foreign writer
        with pytest.raises(CheckpointCorruptError):
            make_trainer(mini_dataset, snapshot_path=str(snap)).fit()

    def test_resume_false_retrains_from_scratch(
        self, mini_dataset, tmp_path, baseline
    ):
        snap = tmp_path / "snap.npz"
        make_trainer(mini_dataset, snapshot_path=str(snap)).fit()
        data = snap.read_bytes()
        snap.write_bytes(data[: len(data) // 2])
        # resume=False never opens the (here: corrupt) snapshot — it
        # retrains from scratch and overwrites it with good state.
        trainer = make_trainer(mini_dataset, snapshot_path=str(snap), resume=False)
        history = trainer.fit()
        assert_continues_baseline(baseline, history, trainer)
