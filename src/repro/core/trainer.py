"""Training loop for STGNN-DJD and the deep baselines.

Follows the paper's Sec. VII-C protocol: Adam, learning rate 0.01,
batch size 32, the joint demand-supply loss of Eq. 21 on Min-Max
normalised targets, early stopping on the validation split, and
denormalisation before metric computation.

Batches are processed by gradient accumulation — the model is a
per-time-step graph program, so a "batch" is 32 prediction times whose
per-sample gradients are averaged before one optimizer step. This is
mathematically identical to batched training and keeps the autograd
graphs small.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import STGNNDJD
from repro.core.persistence import (
    CheckpointSchemaError,
    TrainingSnapshot,
    load_training_snapshot,
    save_training_snapshot,
    training_fingerprint,
)
from repro.data.dataset import BikeShareDataset
from repro.faults import fault_point
from repro.nn import joint_demand_supply_loss, mse_loss
from repro.obs import ObservabilityConfig, RunRecorder, span
from repro.obs.registry import default_registry
from repro.obs.trace import trace_span
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, inference_mode
from repro.utils import get_logger

logger = get_logger("trainer")


@dataclass(frozen=True, slots=True)
class TrainingConfig:
    """Training hyperparameters (paper defaults, Sec. VII-C)."""

    epochs: int = 30
    learning_rate: float = 0.01
    batch_size: int = 32
    grad_clip: float = 5.0
    patience: int = 5  # early-stopping patience, in epochs
    max_batches_per_epoch: int | None = None  # subsample big epochs
    seed: int = 0
    verbose: bool = False
    # "joint" = the paper's Eq. 21 loss; "independent" = plain MSE on
    # demand + MSE on supply (the design-choice ablation in DESIGN.md).
    loss: str = "joint"
    # Observability: None keeps telemetry fully off; an
    # ObservabilityConfig makes fit() record a JSONL event stream and a
    # RunReport under its out_dir (see repro.obs).
    metrics: ObservabilityConfig | None = None
    # Crash resilience. snapshot_path arms epoch-boundary training
    # snapshots (atomic writes): an interrupted fit() rerun with the
    # same config auto-resumes from the last completed epoch and — for
    # deterministic models (dropout == 0) — bitwise-continues the
    # uninterrupted run. resume=False ignores an existing snapshot and
    # retrains from scratch.
    snapshot_path: str | None = None
    resume: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.loss not in ("joint", "independent"):
            raise ValueError(f"loss must be 'joint' or 'independent', got {self.loss!r}")


@dataclass(slots=True)
class TrainingHistory:
    """Per-epoch losses and the early-stopping outcome."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


class Trainer:
    """Fits a model on a dataset with the paper's protocol.

    Works for any model exposing ``forward(sample) -> (demand, supply)``
    in normalised space — STGNN-DJD, its ablations, and the deep graph
    baselines all share this interface.
    """

    def __init__(
        self,
        model: STGNNDJD,
        dataset: BikeShareDataset,
        config: TrainingConfig | None = None,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.config = config or TrainingConfig()
        self.optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
        self._rng = np.random.default_rng(self.config.seed)
        self._best_state: dict[str, np.ndarray] | None = None
        # Normalised target tensors are constants per prediction time;
        # memoise them so epoch k+1 reuses epoch k's allocations.
        self._target_cache: dict[int, tuple[Tensor, Tensor]] = {}
        # Telemetry handles (no-ops until the registry is enabled by a
        # RunRecorder or repro.obs.enable_metrics()).
        obs_registry = default_registry()
        self._obs = obs_registry
        self._samples_counter = obs_registry.counter("trainer.samples")
        self._predict_timer = obs_registry.timer("serving.predict_seconds")
        # Stats of the most recent _run_epoch, for the run recorder.
        self._epoch_stats: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Target normalisation
    # ------------------------------------------------------------------
    @property
    def _horizon(self) -> int:
        """Multi-step horizon of the model (1 for all paper baselines)."""
        config = getattr(self.model, "config", None)
        return getattr(config, "horizon", 1)

    def _normalised_targets(self, t: int) -> tuple[Tensor, Tensor]:
        cached = self._target_cache.get(t)
        if cached is not None:
            return cached
        h = self._horizon
        if h == 1:
            demand = self.dataset.demand_normalizer.transform(self.dataset.demand[t])
            supply = self.dataset.supply_normalizer.transform(self.dataset.supply[t])
        else:
            # (n, h): columns are slots t .. t+h-1 (Sec. IX extension).
            demand = self.dataset.demand_normalizer.transform(
                self.dataset.demand[t : t + h].T
            )
            supply = self.dataset.supply_normalizer.transform(
                self.dataset.supply[t : t + h].T
            )
        targets = (Tensor(demand), Tensor(supply))
        self._target_cache[t] = targets
        return targets

    def _sample_loss(self, t: int):
        self._samples_counter.inc()
        sample = self.dataset.sample(t)
        demand_pred, supply_pred = self.model(sample)
        demand_true, supply_true = self._normalised_targets(t)
        if self.config.loss == "independent":
            return mse_loss(demand_pred, demand_true) + mse_loss(supply_pred, supply_true)
        return joint_demand_supply_loss(demand_pred, demand_true, supply_pred, supply_true)

    def _usable(self, indices: np.ndarray) -> np.ndarray:
        """Drop indices whose multi-step target would run off the data."""
        h = self._horizon
        if h == 1:
            return indices
        return indices[indices <= self.dataset.num_slots - h]

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, epochs: int | None = None) -> TrainingHistory:
        """Train with early stopping; restores the best validation state.

        Training runs in ``float64`` only: gradient accumulation and the
        early-stopping loss comparisons need double precision, and the
        gradcheck suite validates exactly this configuration. A model
        cast with ``model.to`` to another dtype raises ``ValueError``;
        cast it back to ``float64`` first.
        """
        if self.model.param_dtype != np.float64:
            raise ValueError(
                f"Trainer.fit needs a float64 model, got {self.model.param_dtype}; "
                "call model.to(np.float64) first"
            )
        epochs = epochs or self.config.epochs
        train_idx, val_idx, _ = self.dataset.split_indices()
        train_idx, val_idx = self._usable(train_idx), self._usable(val_idx)
        history = TrainingHistory()
        best_val = float("inf")
        bad_epochs = 0
        start_epoch = 0
        if (self.config.snapshot_path is not None and self.config.resume
                and os.path.exists(self.config.snapshot_path)):
            start_epoch, best_val, bad_epochs = self._restore_snapshot(
                self.config.snapshot_path, history
            )

        recorder = None
        if self.config.metrics is not None:
            run_config = dataclasses.asdict(self.config)
            run_config["model"] = type(self.model).__name__
            recorder = RunRecorder(self.config.metrics, run_config=run_config)

        try:
            with trace_span("trainer.fit", epochs=epochs):
                for epoch in range(start_epoch, epochs):
                    fault_point("trainer.epoch")
                    with span("epoch", epoch=epoch), \
                            trace_span("trainer.epoch", epoch=epoch):
                        epoch_loss = self._run_epoch(train_idx)
                        val_loss = self.validation_loss(val_idx)
                    history.train_loss.append(epoch_loss)
                    history.val_loss.append(val_loss)
                    if recorder is not None:
                        stats = self._epoch_stats
                        recorder.record_epoch(
                            epoch,
                            epoch_loss,
                            val_loss,
                            grad_norm=stats.get("grad_norm"),
                            samples_per_sec=stats.get("samples_per_sec"),
                            learning_rate=self.optimizer.lr,
                            seconds=stats.get("seconds"),
                        )
                    if self.config.verbose:
                        logger.info(
                            "epoch %d: train=%.4f val=%.4f", epoch, epoch_loss, val_loss
                        )
                    if val_loss < best_val - 1e-6:
                        best_val = val_loss
                        history.best_epoch = epoch
                        self._best_state = self.model.state_dict()
                        bad_epochs = 0
                    else:
                        bad_epochs += 1
                        if bad_epochs >= self.config.patience:
                            history.stopped_early = True
                            break
                    if self.config.snapshot_path is not None:
                        self._save_snapshot(
                            self.config.snapshot_path, epoch, history,
                            best_val, bad_epochs,
                        )
        finally:
            if recorder is not None:
                recorder.attach(
                    "history",
                    {"best_epoch": history.best_epoch,
                     "stopped_early": history.stopped_early},
                )
                recorder.finish()

        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)
        return history

    def _run_epoch(self, train_idx: np.ndarray) -> float:
        self.model.train()
        order = self._rng.permutation(train_idx)
        batch_size = self.config.batch_size
        batches = [
            order[start : start + batch_size]
            for start in range(0, len(order), batch_size)
        ]
        if self.config.max_batches_per_epoch is not None:
            batches = batches[: self.config.max_batches_per_epoch]

        start = time.perf_counter()
        total, count = 0.0, 0
        norm_sum, samples = 0.0, 0
        for k, batch in enumerate(batches):
            with trace_span("trainer.batch", batch=k, size=len(batch)):
                fault_point("trainer.batch")
                self.optimizer.zero_grad()
                batch_loss = 0.0
                for t in batch:
                    loss = self._sample_loss(int(t))
                    # Average gradients over the batch: scale each sample's
                    # upstream gradient by 1/batch instead of rescaling later.
                    loss.backward(np.asarray(1.0 / len(batch)))
                    batch_loss += loss.item()
                norm_sum += clip_grad_norm(self.optimizer.parameters, self.config.grad_clip)
                self.optimizer.step()
                total += batch_loss / len(batch)
                count += 1
                samples += len(batch)
        elapsed = time.perf_counter() - start
        self._epoch_stats = {
            "seconds": elapsed,
            "samples_per_sec": samples / elapsed if elapsed > 0 else 0.0,
            "grad_norm": norm_sum / count if count else float("nan"),
        }
        return total / count if count else float("nan")

    # ------------------------------------------------------------------
    # Crash resilience: epoch-boundary snapshots + bitwise resume
    # ------------------------------------------------------------------
    def capture_snapshot(
        self,
        epoch: int = -1,
        history: TrainingHistory | None = None,
        best_val: float = float("inf"),
        bad_epochs: int = 0,
    ) -> TrainingSnapshot:
        """The trainer's full optimization state as a snapshot object.

        Captures parameters, Adam moments and step count, the shuffling
        RNG and the early-stopping bookkeeping. The fit loop uses it at
        epoch boundaries; the continual-learning loop calls it directly
        after each incremental retrain (``epoch=-1`` marks a snapshot
        not tied to a specific fit epoch) and hands the result to the
        next cycle's :meth:`warm_start`.
        """
        history = history if history is not None else TrainingHistory()
        adam = self.optimizer
        return TrainingSnapshot(
            epoch=epoch,
            model_state=self.model.state_dict(),
            adam_step_count=adam._step_count,
            adam_m={f"{i:04d}": m for i, m in enumerate(adam._m)},
            adam_v={f"{i:04d}": v for i, v in enumerate(adam._v)},
            rng_state=self._rng.bit_generator.state,
            train_loss=list(history.train_loss),
            val_loss=list(history.val_loss),
            best_epoch=history.best_epoch,
            best_val=best_val,
            bad_epochs=bad_epochs,
            best_state=self._best_state,
            fingerprint=training_fingerprint(self.model),
        )

    def warm_start(self, snapshot: TrainingSnapshot) -> None:
        """Adopt a snapshot's optimization state without its fit progress.

        Loads model parameters, Adam moments/step count and the
        shuffling RNG, but none of the epoch counter, loss history or
        early-stopping bookkeeping — the next :meth:`fit` starts at
        epoch 0 of whatever (possibly different) dataset window this
        trainer holds while optimizing from exactly where the snapshot
        left off. This is the continual loop's incremental-retrain
        entry point; crash-resume of an interrupted fit should keep
        using ``snapshot_path``/``resume`` instead.
        """
        self._load_optimization_state(snapshot, "training snapshot", "warm-start")
        self._best_state = None
        self._target_cache.clear()

    def _load_optimization_state(
        self, snapshot: TrainingSnapshot, source: str, action: str
    ) -> None:
        """Validate ``snapshot`` against this trainer, then load it.

        Loads parameters, Adam moments/step count and the shuffling RNG.
        Every check runs before the first write, so a rejected snapshot
        (``CheckpointSchemaError``) leaves the trainer untouched.
        ``source`` names the snapshot and ``action`` the refused
        operation in the error message.
        """
        expected = training_fingerprint(self.model)
        if snapshot.fingerprint != expected:
            raise CheckpointSchemaError(
                f"{source} was written for {snapshot.fingerprint!r}, "
                f"not {expected!r}; refusing to {action}"
            )
        adam = self.optimizer
        keys = {f"{i:04d}" for i in range(len(adam.parameters))}
        for name, moments in (("adam_m", snapshot.adam_m), ("adam_v", snapshot.adam_v)):
            if set(moments) != keys:
                raise CheckpointSchemaError(
                    f"{source} carries {len(moments)} optimizer moments "
                    f"({name}) for {len(adam.parameters)} parameters; "
                    f"refusing to {action}"
                )
        self.model.load_state_dict(snapshot.model_state)
        adam._step_count = snapshot.adam_step_count
        for i in range(len(adam.parameters)):
            adam._m[i][...] = snapshot.adam_m[f"{i:04d}"]
            adam._v[i][...] = snapshot.adam_v[f"{i:04d}"]
        self._rng.bit_generator.state = snapshot.rng_state

    def _save_snapshot(
        self,
        path: str,
        epoch: int,
        history: TrainingHistory,
        best_val: float,
        bad_epochs: int,
    ) -> None:
        """Persist the fit loop's full state after a completed epoch.

        Captures everything the loop reads going forward — parameters,
        Adam moments and step count, the shuffling RNG, per-epoch
        history, and the early-stopping bookkeeping — so a resumed run
        re-enters at ``epoch + 1`` indistinguishable from one that never
        stopped. The write is atomic (tmp + rename), so a crash *during*
        snapshotting leaves the previous snapshot intact.
        """
        snapshot = self.capture_snapshot(
            epoch=epoch, history=history, best_val=best_val, bad_epochs=bad_epochs
        )
        save_training_snapshot(path, snapshot)

    def _restore_snapshot(
        self, path: str, history: TrainingHistory
    ) -> tuple[int, float, int]:
        """Load a snapshot into the live trainer; returns
        ``(start_epoch, best_val, bad_epochs)`` for the fit loop."""
        snapshot = load_training_snapshot(path)
        self._load_optimization_state(
            snapshot, f"training snapshot {path}", "resume"
        )
        history.train_loss = list(snapshot.train_loss)
        history.val_loss = list(snapshot.val_loss)
        history.best_epoch = snapshot.best_epoch
        self._best_state = snapshot.best_state
        logger.info(
            "resumed training from %s at epoch %d", path, snapshot.epoch + 1
        )
        return snapshot.epoch + 1, snapshot.best_val, snapshot.bad_epochs

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def validation_loss(self, indices: np.ndarray) -> float:
        """Mean per-sample loss over ``indices`` without gradients.

        Like :meth:`predict`, runs on the forward-only fast path.
        """
        self.model.eval()
        total = 0.0
        with inference_mode():
            for t in indices:
                total += self._sample_loss(int(t)).item()
        self.model.train()
        return total / len(indices) if len(indices) else float("nan")

    def predict(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Denormalised (demand, supply) prediction for time ``t``.

        Shapes are ``(n,)`` for single-step models and ``(n, horizon)``
        for multi-step ones (column ``j`` predicts slot ``t + j``).

        Runs on the forward-only fast path: no graph is recorded. With
        metrics enabled, each call lands in the
        ``serving.predict_seconds`` latency histogram.
        """
        self.model.eval()
        start = time.perf_counter()
        with inference_mode():
            demand_pred, supply_pred = self.model(self.dataset.sample(t))
            demand = self.dataset.demand_normalizer.inverse_transform(demand_pred.data)
            supply = self.dataset.supply_normalizer.inverse_transform(supply_pred.data)
        if self._obs.enabled:
            self._predict_timer.observe(time.perf_counter() - start)
        self.model.train()
        return demand, supply

    def quality_baseline(self, indices: np.ndarray | None = None):
        """Training-time forecast-quality baseline for drift monitoring.

        Runs :meth:`predict` over the validation split (or ``indices``)
        and scores next-slot demand/supply against the raw observed
        flows with the paper's :mod:`repro.eval.metrics` — the same
        functions the serving-side :class:`~repro.obs.quality.QualityMonitor`
        applies to reconciled live forecasts, so the two numbers are
        directly comparable. Embed the result in a checkpoint via
        :func:`repro.core.persistence.save_checkpoint` and the serving
        stack picks it up as its drift reference.
        """
        from repro.eval import metrics as paper_metrics
        from repro.obs.quality import QualityBaseline

        if indices is None:
            _, indices, _ = self.dataset.split_indices()
        indices = self._usable(np.asarray(indices))
        if len(indices) == 0:
            raise ValueError("quality_baseline needs at least one sample")
        true_d, pred_d, true_s, pred_s = [], [], [], []
        for t in indices:
            t = int(t)
            demand, supply = self.predict(t)
            if demand.ndim == 2:  # multi-step: score the h=0 column
                demand, supply = demand[:, 0], supply[:, 0]
            pred_d.append(demand)
            pred_s.append(supply)
            true_d.append(self.dataset.demand[t])
            true_s.append(self.dataset.supply[t])
        td, pd = np.stack(true_d), np.stack(pred_d)
        ts, ps = np.stack(true_s), np.stack(pred_s)
        return QualityBaseline(
            rmse=float(paper_metrics.rmse(td, pd, ts, ps)),
            mae=float(paper_metrics.mae(td, pd, ts, ps)),
            samples=int(len(indices)),
        )
