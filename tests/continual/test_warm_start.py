"""Warm-start parity: incremental epochs continue a fit bit-for-bit.

The continual loop's retrain stage is ``Trainer.warm_start(snapshot)``
followed by a short ``fit``. This pins the contract it relies on: one
epoch warm-started from an uninterrupted run's epoch-``e`` snapshot
produces *bitwise* the parameters, Adam moments and RNG state of that
run's epoch ``e + 1``.
"""

import numpy as np
import pytest

from repro.core.model import STGNNDJD
from repro.core.persistence import (
    CheckpointSchemaError,
    load_training_snapshot,
)
from repro.core.trainer import Trainer, TrainingConfig

MODEL_KWARGS = dict(fcg_layers=1, pcg_layers=1, num_heads=2, dropout=0.0)


def _trainer(dataset, snapshot_path):
    model = STGNNDJD.from_dataset(dataset, seed=3, **MODEL_KWARGS)
    config = TrainingConfig(
        epochs=3,
        batch_size=16,
        seed=11,
        patience=100,  # no early stopping: every epoch must run
        snapshot_path=None if snapshot_path is None else str(snapshot_path),
        resume=False,
    )
    return Trainer(model, dataset, config)


def _assert_snapshots_bitwise_equal(a, b):
    assert a.model_state.keys() == b.model_state.keys()
    for name in a.model_state:
        assert np.array_equal(a.model_state[name], b.model_state[name]), name
    assert a.adam_step_count == b.adam_step_count
    for key in a.adam_m:
        assert np.array_equal(a.adam_m[key], b.adam_m[key])
        assert np.array_equal(a.adam_v[key], b.adam_v[key])
    assert a.rng_state == b.rng_state


def test_warm_started_epoch_bitmatches_uninterrupted_fit(mini_dataset, tmp_path):
    # Uninterrupted reference: 3 epochs, snapshotting each boundary.
    # After fit() the snapshot file holds the epoch-2 boundary state.
    full = _trainer(mini_dataset, tmp_path / "full.npz")
    full.fit(3)
    reference = load_training_snapshot(tmp_path / "full.npz")
    assert reference.epoch == 2

    # Identical prefix run stopped after 2 epochs: its snapshot is the
    # epoch-1 boundary the continual loop would warm-start from.
    prefix = _trainer(mini_dataset, tmp_path / "prefix.npz")
    prefix.fit(2)
    boundary = load_training_snapshot(tmp_path / "prefix.npz")
    assert boundary.epoch == 1

    # Warm start a *fresh* trainer (new model init, new optimizer, new
    # RNG) from the boundary and run one incremental epoch.
    warm = _trainer(mini_dataset, None)
    warm.warm_start(boundary)
    warm.fit(1)
    _assert_snapshots_bitwise_equal(warm.capture_snapshot(), reference)


def test_warm_start_rejects_mismatched_fingerprint(mini_dataset, tmp_path):
    donor = _trainer(mini_dataset, None)
    snapshot = donor.capture_snapshot()
    other_model = STGNNDJD.from_dataset(
        mini_dataset, seed=3, fcg_layers=2, pcg_layers=1, num_heads=2,
        dropout=0.0,
    )
    other = Trainer(other_model, mini_dataset, TrainingConfig(epochs=1))
    with pytest.raises(CheckpointSchemaError, match="warm-start"):
        other.warm_start(snapshot)


def test_warm_start_resets_best_state_and_target_cache(mini_dataset):
    trainer = _trainer(mini_dataset, None)
    trainer.fit(1)
    assert trainer._best_state is not None
    snapshot = trainer.capture_snapshot()
    fresh = _trainer(mini_dataset, None)
    fresh.warm_start(snapshot)
    assert fresh._best_state is None
    assert not fresh._target_cache
