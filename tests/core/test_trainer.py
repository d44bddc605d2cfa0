"""Trainer: protocol, loss descent, early stopping, prediction scaling."""

import numpy as np
import pytest

from repro.core import STGNNDJD, Trainer, TrainingConfig


@pytest.fixture(scope="module")
def trained(mini_dataset):
    model = STGNNDJD.from_dataset(mini_dataset, seed=0, dropout=0.0)
    trainer = Trainer(
        model, mini_dataset,
        TrainingConfig(epochs=4, max_batches_per_epoch=4, seed=0, patience=10),
    )
    history = trainer.fit()
    return trainer, history


class TestTrainingConfig:
    def test_paper_defaults(self):
        config = TrainingConfig()
        assert config.learning_rate == 0.01
        assert config.batch_size == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestFit:
    def test_loss_decreases(self, trained):
        _, history = trained
        assert history.train_loss[-1] < history.train_loss[0]

    def test_history_lengths_match(self, trained):
        _, history = trained
        assert len(history.train_loss) == len(history.val_loss)

    def test_best_epoch_recorded(self, trained):
        _, history = trained
        assert 0 <= history.best_epoch < len(history.val_loss)

    def test_best_state_restored(self, trained, mini_dataset):
        trainer, history = trained
        best_val = min(history.val_loss)
        _, val_idx, _ = mini_dataset.split_indices()
        current_val = trainer.validation_loss(val_idx)
        assert current_val == pytest.approx(best_val, rel=0.15)

    def test_early_stopping(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=1, dropout=0.0)
        trainer = Trainer(
            model, mini_dataset,
            TrainingConfig(epochs=50, max_batches_per_epoch=1, patience=1,
                           learning_rate=0.2, seed=1),
        )
        history = trainer.fit()
        assert len(history.train_loss) < 50
        assert history.stopped_early

    def test_fit_refuses_a_float32_model(self, mini_dataset):
        model = STGNNDJD.from_dataset(mini_dataset, seed=1).to(np.float32)
        trainer = Trainer(model, mini_dataset, TrainingConfig(epochs=1))
        with pytest.raises(ValueError, match="float64"):
            trainer.fit()
        assert model.param_dtype == np.float32


class TestPredict:
    def test_output_in_original_units(self, trained, mini_dataset):
        trainer, _ = trained
        _, _, test_idx = mini_dataset.split_indices()
        demand, supply = trainer.predict(int(test_idx[0]))
        assert demand.shape == (mini_dataset.num_stations,)
        # Denormalised scale: same order as the observed counts.
        assert demand.max() < mini_dataset.demand.max() * 5 + 10

    def test_deterministic_in_eval(self, trained, mini_dataset):
        trainer, _ = trained
        _, _, test_idx = mini_dataset.split_indices()
        t = int(test_idx[0])
        d1, s1 = trainer.predict(t)
        d2, s2 = trainer.predict(t)
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_allclose(s1, s2)

    def test_better_than_untrained(self, trained, mini_dataset):
        """Training must beat the untrained model on validation loss."""
        trainer, history = trained
        fresh = STGNNDJD.from_dataset(mini_dataset, seed=5, dropout=0.0)
        _, val_idx, _ = mini_dataset.split_indices()
        fresh_loss = Trainer(fresh, mini_dataset).validation_loss(val_idx)
        trained_loss = trainer.validation_loss(val_idx)
        assert trained_loss < fresh_loss


class TestSeedReproducibility:
    def test_same_seed_same_history(self, mini_dataset):
        losses = []
        for _ in range(2):
            model = STGNNDJD.from_dataset(mini_dataset, seed=3)
            trainer = Trainer(
                model, mini_dataset,
                TrainingConfig(epochs=1, max_batches_per_epoch=2, seed=3),
            )
            losses.append(trainer.fit().train_loss[0])
        assert losses[0] == pytest.approx(losses[1], rel=1e-9)
