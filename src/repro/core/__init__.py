"""The paper's contribution: STGNN-DJD model, aggregators, GNNs, trainer."""

from repro.core.aggregators import (
    FlowAggregator,
    MaxAggregator,
    MeanAggregator,
    make_fcg_aggregator,
)
from repro.core.gnn import FlowGNN, PatternGNN
from repro.core.model import STGNNDJD, STGNNDJDConfig
from repro.core.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.core.persistence import (
    SCHEMA_VERSION,
    SNAPSHOT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointSchemaError,
    TrainingSnapshot,
    load_config,
    load_state,
    load_stgnn,
    load_training_snapshot,
    save_checkpoint,
    save_training_snapshot,
    training_fingerprint,
)

__all__ = [
    "FlowAggregator",
    "MeanAggregator",
    "MaxAggregator",
    "make_fcg_aggregator",
    "FlowGNN",
    "PatternGNN",
    "STGNNDJD",
    "STGNNDJDConfig",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "save_checkpoint",
    "load_state",
    "load_config",
    "load_stgnn",
    "SCHEMA_VERSION",
    "SNAPSHOT_VERSION",
    "CheckpointError",
    "CheckpointSchemaError",
    "CheckpointCorruptError",
    "TrainingSnapshot",
    "save_training_snapshot",
    "load_training_snapshot",
    "training_fingerprint",
]
