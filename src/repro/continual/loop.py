"""The online continual-learning loop: extract → retrain → shadow-eval → promote.

:class:`ContinualLearner` closes the loop between serving and training.
Each :meth:`~ContinualLearner.run_cycle`:

1. **extract** — pulls a day-aligned training window out of the live
   flow store (:mod:`repro.continual.extract`), normalizers pinned to
   the deployment's scalers, plus held-back recent slots the window
   deliberately excludes;
2. **retrain** — warm-starts a :class:`~repro.core.trainer.Trainer`
   from the persisted :class:`~repro.core.persistence.TrainingSnapshot`
   (parameters + Adam moments + RNG) and runs a few incremental epochs
   on the extracted window;
3. **shadow-eval** — scores the candidate *and* the live checkpoint on
   the held-back slots through two :class:`~repro.obs.quality.QualityMonitor`
   windows (the paper's Eq. 22 joint RMSE/MAE, same code path as
   serving-time quality), and promotes the candidate only if its
   held-back RMSE is no higher than the live model's;
4. **promote** — atomically writes the candidate checkpoint with a
   fresh quality baseline, pre-flights it through the schema/corruption
   checks (:func:`~repro.core.persistence.load_stgnn`), and hot-reloads
   the service onto it (:meth:`~repro.serve.service.PredictionService.reload`).

The shadow evaluation is the promotion's only model check: a candidate
whose held-back RMSE is not finite (NaN weights, a diverged retrain)
never reaches ``reload``. Every stage sits behind a ``continual.*``
fault seam; a failure at any stage leaves the live model, checkpoint
and snapshot untouched (stages 1–3) or rolled back (stage 4: the
previous checkpoint is restored, and a service whose reload failed is
reloaded onto it so it stops flagging responses stale).

Graph evolution (:meth:`~ContinualLearner.apply_station_change`)
handles the city changing shape under the loop: the live store grows or
shrinks in place (pending in-transit inflows for removed stations are
drained), the registry is re-indexed, the deployed checkpoint and the
training snapshot are remapped parameter-by-parameter
(:mod:`repro.continual.evolve`), and the evolved weights roll out
through the same hot reload — no process restart.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.core.persistence import (
    load_quality_baseline,
    load_stgnn,
    load_training_snapshot,
    save_checkpoint,
    save_training_snapshot,
)
from repro.core.trainer import Trainer, TrainingConfig
from repro.continual.evolve import (
    GraphEvolution,
    evolve_flow_store,
    evolve_model,
    evolve_registry,
    evolve_training_snapshot,
)
from repro.continual.extract import extract_training_dataset, holdback_samples
from repro.data.normalize import MinMaxNormalizer
from repro.data.stations import StationRegistry
from repro.faults import fault_point, fault_transform
from repro.obs.events import emit_event
from repro.obs.quality import QualityBaseline, QualityConfig, QualityMonitor
from repro.tensor import inference_mode
from repro.utils import get_logger

logger = get_logger("continual")


class ContinualError(RuntimeError):
    """A continual cycle failed; the live deployment is unchanged."""


class PromotionRolledBack(ContinualError):
    """Promotion failed after the checkpoint write; the previous
    checkpoint was restored and the service reloaded onto it."""


@dataclass(frozen=True, slots=True)
class ContinualConfig:
    """Knobs for the update loop.

    ``train_days`` must leave the extracted window a usable day-aligned
    70/10/rest split *after* the sampling horizon — with the paper's
    ``d = 7`` long window that means two weeks or more.
    ``holdback_slots`` is the span the candidate and the live model are
    scored on; the candidate ships when its RMSE there is finite and no
    higher than the live model's.
    """

    checkpoint_path: str
    snapshot_path: str
    train_days: int = 14
    retrain_epochs: int = 2
    holdback_slots: int = 8
    seed: int = 0
    training: TrainingConfig | None = None

    def __post_init__(self) -> None:
        if self.train_days < 1:
            raise ValueError(f"train_days must be >= 1, got {self.train_days}")
        if self.retrain_epochs < 1:
            raise ValueError(
                f"retrain_epochs must be >= 1, got {self.retrain_epochs}"
            )
        if self.holdback_slots < 1:
            raise ValueError(
                f"holdback_slots must be >= 1, got {self.holdback_slots}"
            )
        if self.training is not None and self.training.snapshot_path is not None:
            raise ValueError(
                "continual training config must not set snapshot_path — the "
                "loop owns snapshot persistence (ContinualConfig.snapshot_path)"
            )


@dataclass(slots=True)
class CycleResult:
    """What one :meth:`ContinualLearner.run_cycle` did."""

    cycle: int
    window_start: int
    window_end: int
    candidate_rmse: float
    candidate_mae: float
    live_rmse: float
    live_mae: float
    eval_samples: int
    promoted: bool
    model_version: int


class ContinualLearner:
    """Drives incremental retraining against a live deployment.

    ``store`` is the live :class:`~repro.serve.state.FlowStateStore`
    (ingestion keeps writing to it while cycles run — extraction reads
    a consistent finalized window under the store lock). ``deploy`` is
    the :class:`~repro.serve.service.PredictionService` serving from
    that store. The checkpoint at ``config.checkpoint_path`` and the
    snapshot at ``config.snapshot_path`` must exist (the initial offline
    training writes both); the loop keeps the pair in lockstep from then
    on.
    """

    def __init__(
        self,
        store,
        deploy,
        registry: StationRegistry,
        config: ContinualConfig,
        *,
        demand_normalizer: MinMaxNormalizer,
        supply_normalizer: MinMaxNormalizer,
        flow_scale: float,
    ) -> None:
        self.store = store
        self.deploy = deploy
        self.registry = registry
        self.config = config
        self.demand_normalizer = demand_normalizer
        self.supply_normalizer = supply_normalizer
        self.flow_scale = float(flow_scale)
        self.cycles = 0
        self.promotions = 0

    # ------------------------------------------------------------------
    # One full cycle
    # ------------------------------------------------------------------
    def run_cycle(self) -> CycleResult:
        """Extract, retrain, shadow-evaluate, maybe promote. Returns the
        cycle's scorecard; raises on stage failure (live model intact,
        except a post-write promotion failure which is rolled back and
        reported as :class:`PromotionRolledBack`)."""
        cycle = self.cycles
        self.cycles += 1

        # -- extract ----------------------------------------------------
        fault_point("continual.extract")
        dataset, start = extract_training_dataset(
            self.store,
            self.registry,
            train_days=self.config.train_days,
            holdback_slots=self.config.holdback_slots,
            demand_normalizer=self.demand_normalizer,
            supply_normalizer=self.supply_normalizer,
            flow_scale=self.flow_scale,
            name=f"continual-cycle{cycle}",
        )
        eval_samples = holdback_samples(self.store, self.config.holdback_slots)

        # -- retrain ----------------------------------------------------
        fault_point("continual.retrain")
        snapshot = load_training_snapshot(self.config.snapshot_path)
        candidate = load_stgnn(self.config.checkpoint_path)
        trainer = Trainer(candidate, dataset, self._training_config())
        trainer.warm_start(snapshot)
        history = trainer.fit(self.config.retrain_epochs)
        new_snapshot = trainer.capture_snapshot(
            epoch=snapshot.epoch + len(history.train_loss), history=history
        )
        candidate.eval()

        # -- shadow-evaluate -------------------------------------------
        fault_point("continual.evaluate")
        live = load_stgnn(self.config.checkpoint_path)
        cand_rolling = self._score(candidate, eval_samples)
        live_rolling = self._score(live, eval_samples)
        cand_rmse = float(cand_rolling["rmse"])
        live_rmse = float(live_rolling["rmse"])
        promoted = bool(
            np.isfinite(cand_rmse)
            and np.isfinite(live_rmse)
            and cand_rmse <= live_rmse
        )
        emit_event(
            "event", "continual.shadow_eval",
            cycle=cycle,
            candidate_rmse=cand_rmse,
            candidate_mae=float(cand_rolling["mae"]),
            live_rmse=live_rmse,
            live_mae=float(live_rolling["mae"]),
            samples=int(cand_rolling["samples"]),
            promoted=promoted,
            ts=time.time(),
        )

        # -- promote ----------------------------------------------------
        version = self.deploy.model_version
        if promoted:
            baseline = QualityBaseline(
                rmse=cand_rmse,
                mae=float(cand_rolling["mae"]),
                samples=int(cand_rolling["samples"]),
            )
            version = self._promote(candidate, live, baseline, new_snapshot, cycle)
            self.promotions += 1

        result = CycleResult(
            cycle=cycle,
            window_start=start,
            window_end=start + dataset.num_slots,
            candidate_rmse=cand_rmse,
            candidate_mae=float(cand_rolling["mae"]),
            live_rmse=live_rmse,
            live_mae=float(live_rolling["mae"]),
            eval_samples=int(cand_rolling["samples"]),
            promoted=promoted,
            model_version=version,
        )
        logger.info(
            "cycle %d: candidate %.4f vs live %.4f rmse over %d slots -> %s",
            cycle, cand_rmse, live_rmse, result.eval_samples,
            "promoted" if promoted else "kept live model",
        )
        return result

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _training_config(self) -> TrainingConfig:
        base = self.config.training or TrainingConfig(
            epochs=self.config.retrain_epochs, seed=self.config.seed
        )
        # Early stopping across a handful of incremental epochs would
        # mostly fire on noise; the band gate is the real quality check.
        return dataclasses.replace(
            base, epochs=self.config.retrain_epochs,
            patience=max(base.patience, self.config.retrain_epochs),
            resume=False,
        )

    def _score(self, model, samples) -> dict:
        """Rolling Eq.-22 metrics of ``model`` over held-back samples.

        Forecasts are recorded and reconciled through a throwaway
        :class:`QualityMonitor` — the exact serving-time code path — so
        the shadow numbers are directly comparable to the live quality
        windows and to an offline evaluation.
        """
        monitor = QualityMonitor(
            QualityConfig(window=len(samples), min_samples=1)
        )
        for sample in samples:
            with inference_mode():
                demand_n, supply_n = model(sample)
            demand = np.asarray(demand_n.data, dtype=np.float64)
            supply = np.asarray(supply_n.data, dtype=np.float64)
            if demand.ndim == 2:  # multi-horizon head: score horizon 0
                demand, supply = demand[:, 0], supply[:, 0]
            monitor.record_forecast(
                sample.t,
                self.demand_normalizer.inverse_transform(demand),
                self.supply_normalizer.inverse_transform(supply),
            )
        monitor.on_rollover(self.store, [sample.t for sample in samples])
        rolling = monitor.rolling(0)
        if rolling is None or rolling["samples"] < len(samples):
            raise ContinualError(
                "shadow evaluation could not reconcile every held-back slot "
                "(store retention moved under the cycle?)"
            )
        return rolling

    def _promote(
        self, candidate, live, baseline: QualityBaseline,
        new_snapshot, cycle: int,
    ) -> int:
        path = self.config.checkpoint_path
        old_baseline = load_quality_baseline(path)
        fault_point("continual.promote")
        save_checkpoint(candidate, path, quality_baseline=baseline)
        try:
            # Corruption seam + pre-flight: whatever is on disk must pass
            # the checkpoint schema/corruption gate before the service is
            # told to load it — a bad artifact never reaches serving.
            fault_transform("continual.promote.artifact", path)
            load_stgnn(path)
            version = self.deploy.reload(path)
        except BaseException as error:
            self._rollback(live, old_baseline)
            emit_event(
                "event", "continual.rolled_back",
                cycle=cycle, error=str(error), ts=time.time(),
            )
            raise PromotionRolledBack(
                f"promotion of cycle {cycle} rolled back: {error}"
            ) from error
        save_training_snapshot(self.config.snapshot_path, new_snapshot)
        emit_event(
            "event", "continual.promoted",
            cycle=cycle,
            model_version=version,
            candidate_rmse=baseline.rmse,
            candidate_mae=baseline.mae,
            ts=time.time(),
        )
        return version

    def _rollback(self, live, old_baseline: QualityBaseline | None) -> None:
        """Restore the pre-promotion checkpoint and recover the service.

        The candidate may already sit on disk; rewrite the previous
        weights (atomic, same path the watcher polls). A failed
        ``reload`` kept the old weights serving but marks every
        response stale until a reload succeeds, so reload the service
        onto the restored checkpoint — the ladder ends with the same
        weights serving, no longer flagged stale.
        """
        path = self.config.checkpoint_path
        save_checkpoint(live, path, quality_baseline=old_baseline)
        if self.deploy.reload_failed:
            try:
                self.deploy.reload(path)
            except Exception:  # noqa: BLE001 - the service keeps answering stale
                logger.exception("reload of the restored checkpoint failed")
        logger.warning("promotion rolled back; previous checkpoint restored")

    # ------------------------------------------------------------------
    # Graph evolution: the station set changes under a live deployment
    # ------------------------------------------------------------------
    def apply_station_change(
        self,
        evolution: GraphEvolution,
        new_stations=None,
    ) -> float:
        """Grow/shrink the whole deployment to a new station set, live.

        Ordering matters: the store evolves first (its config is what
        ``reload`` checks candidate models against), then serving caches
        and quality windows are flushed (their arrays are sized to the
        old city), then the evolved checkpoint rolls out through the
        hot reload, and finally the on-disk training snapshot is
        remapped so the next cycle warm-starts in the new shape.
        Returns the pending in-transit inflow mass drained from removed
        stations.
        """
        if evolution.old_num_stations != self.store.config.num_stations:
            raise ValueError(
                f"evolution starts from {evolution.old_num_stations} stations "
                f"but the store has {self.store.config.num_stations}"
            )
        old_model = load_stgnn(self.config.checkpoint_path)
        snapshot = load_training_snapshot(self.config.snapshot_path)

        drained = evolve_flow_store(self.store, evolution)
        self.registry = evolve_registry(self.registry, evolution, new_stations)
        self.deploy.on_graph_evolved()

        new_model = evolve_model(old_model, evolution, seed=self.config.seed)
        # The old quality baseline scored a different station set; drop
        # it — the next promotion embeds a fresh one.
        save_checkpoint(new_model, self.config.checkpoint_path)
        self.deploy.reload(self.config.checkpoint_path)
        save_training_snapshot(
            self.config.snapshot_path,
            evolve_training_snapshot(
                snapshot, old_model.config, evolution, seed=self.config.seed
            ),
        )
        emit_event(
            "event", "continual.graph_evolved",
            old_stations=evolution.old_num_stations,
            new_stations=evolution.num_stations,
            removed=list(evolution.removed),
            added=evolution.new_count,
            drained_inflow=float(drained),
            ts=time.time(),
        )
        logger.info(
            "graph evolved %d -> %d stations (drained %.0f in-transit inflow)",
            evolution.old_num_stations, evolution.num_stations, drained,
        )
        return drained
