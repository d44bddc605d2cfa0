"""Online continual learning with shadow-evaluated auto-deploy.

The serving stack (:mod:`repro.serve`) predicts from live flow state;
this package closes the loop by training on it. A
:class:`~repro.continual.loop.ContinualLearner` periodically extracts
recent finalized history from the live store (bitwise equal to the
batch tensor builder — the store's equivalence guarantee), warm-starts
an incremental retrain from the last training snapshot, shadow-
evaluates the candidate against the live model on held-back slots with
the paper's Eq. 22 joint metrics, and — only when the candidate clears
a configurable improvement band — promotes it through the existing
atomic checkpoint write and the service's hot reload. Station churn is
handled in place by :mod:`repro.continual.evolve`: flow state, graphs,
model parameters and optimizer moments all grow or shrink to the new
city without a restart.

Chaos seams: ``continual.extract``, ``continual.retrain``,
``continual.evaluate``, ``continual.promote`` (plus the
``continual.promote.artifact`` transform over the written checkpoint
path) — see :mod:`repro.faults`.
"""

from repro.continual.evolve import (
    GraphEvolution,
    evolve_array,
    evolve_flow_store,
    evolve_model,
    evolve_registry,
    evolve_state_dict,
    evolve_training_snapshot,
)
from repro.continual.extract import (
    InsufficientHistoryError,
    extract_training_dataset,
    holdback_samples,
    window_bounds,
)
from repro.continual.loop import (
    ContinualConfig,
    ContinualError,
    ContinualLearner,
    CycleResult,
    PromotionRolledBack,
)

__all__ = [
    "ContinualConfig",
    "ContinualError",
    "ContinualLearner",
    "CycleResult",
    "GraphEvolution",
    "InsufficientHistoryError",
    "PromotionRolledBack",
    "evolve_array",
    "evolve_flow_store",
    "evolve_model",
    "evolve_registry",
    "evolve_state_dict",
    "evolve_training_snapshot",
    "extract_training_dataset",
    "holdback_samples",
    "window_bounds",
]
