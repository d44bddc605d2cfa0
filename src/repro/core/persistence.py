"""Model checkpointing: save/load STGNN-DJD (and any Module) to ``.npz``.

The paper's deployment story (Sec. VII-I) is train-offline,
predict-online; checkpoints are the artifact that crosses that
boundary. A checkpoint stores the parameter arrays plus the model
configuration, so :func:`load_stgnn` can rebuild the exact model without
the original dataset.

Three failure modes are engineered against:

* **Torn writes** — every writer goes through :func:`_atomic_savez`:
  the bytes land in a same-directory temp file that is ``os.replace``\\ d
  into place, so a reader (e.g. the serving hot-reload watcher) never
  observes a half-written checkpoint from *this* writer.
* **Corrupt files** — truncated, bit-flipped or otherwise unreadable
  checkpoints (from non-atomic third-party writers, disk faults, or
  partial copies) raise :class:`CheckpointCorruptError` instead of
  surfacing a raw ``zipfile``/``zlib`` traceback — and never load
  garbage weights, because the failure is detected before any array is
  handed out.
* **Schema drift** — checkpoints carry a **schema version**
  (:data:`SCHEMA_VERSION`); a reader rejects any other version with
  :class:`CheckpointSchemaError`. Version-less checkpoints written
  before the field existed still load (legacy format, version 1).

Beyond model checkpoints, this module also persists **training
snapshots** (:func:`save_training_snapshot` /
:func:`load_training_snapshot`): the full fit-loop state — parameters,
Adam moments, RNG state, per-epoch history, early-stopping bookkeeping —
captured at an epoch boundary, so an interrupted run resumes
bit-for-bit (see ``TrainingConfig.snapshot_path``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.model import STGNNDJD, STGNNDJDConfig
from repro.nn import Module

_CONFIG_KEY = "__config_json__"
_SCHEMA_KEY = "__schema_version__"
_QUALITY_KEY = "__quality_baseline__"

#: Current checkpoint schema. Bump when the on-disk layout changes in a
#: way old readers cannot interpret; readers reject any other version.
SCHEMA_VERSION = 1

#: Current training-snapshot schema (independent of the checkpoint one).
SNAPSHOT_VERSION = 1

_META_KEYS = (_CONFIG_KEY, _SCHEMA_KEY, _QUALITY_KEY)

#: Config fields of the retired top-k sparse graph representation.
#: Parameters are identical under both representations, so checkpoints
#: that still carry these keys load as the dense model.
_RETIRED_CONFIG_KEYS = ("graph_mode", "graph_top_k", "graph_block_rows")

#: Exceptions that mean "the file is not a readable npz archive". numpy
#: raises ValueError for non-zip garbage, zipfile/zlib surface
#: BadZipFile/CRC errors for truncation and bit flips (sometimes lazily,
#: at member-read time), and very short files can hit bare EOFError.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    zlib.error,
    ValueError,
    EOFError,
    OSError,
)


class CheckpointError(RuntimeError):
    """Base class for checkpoint read failures."""


class CheckpointSchemaError(CheckpointError):
    """A checkpoint's schema version does not match this reader."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is truncated, bit-flipped, or not an archive."""


@contextlib.contextmanager
def _open_checkpoint(path: str | Path) -> Iterator[np.lib.npyio.NpzFile]:
    """Open an ``.npz`` for reading, normalising corruption failures.

    ``np.load`` reads archive members lazily, so corruption can surface
    either at open (broken central directory) or at member access (CRC
    mismatch from a bit flip); both paths funnel into
    :class:`CheckpointCorruptError`. A missing file stays a plain
    ``FileNotFoundError`` — absence is not corruption.
    """
    try:
        bundle = np.load(Path(path))
    except FileNotFoundError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} is corrupt or truncated: {exc}"
        ) from exc
    try:
        with bundle:
            yield bundle
    except CheckpointError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} is corrupt or truncated: {exc}"
        ) from exc


def _atomic_savez(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write an ``.npz`` atomically: temp file + rename, fsync'd.

    The temp file lives next to the target so ``os.replace`` stays a
    same-filesystem atomic rename; a concurrent reader sees either the
    old complete file or the new complete file, never a prefix.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _check_schema(bundle, path: str | Path) -> None:
    if _SCHEMA_KEY not in bundle.files:
        return  # legacy version-less checkpoint: accepted as version 1
    version = int(bundle[_SCHEMA_KEY])
    if version != SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint {path} has schema version {version}, but this "
            f"reader supports version {SCHEMA_VERSION}; refusing to load"
        )


def save_checkpoint(
    model: Module, path: str | Path, quality_baseline=None
) -> None:
    """Atomically write a module's parameters (and config) to ``.npz``.

    ``quality_baseline`` (a :class:`repro.obs.quality.QualityBaseline`)
    embeds the training-time error level so a serving process loading
    this checkpoint can monitor drift against it out of the box.
    """
    path = Path(path)
    arrays = dict(model.state_dict())
    config = getattr(model, "config", None)
    if dataclasses.is_dataclass(config):
        config_json = json.dumps(dataclasses.asdict(config))
        arrays[_CONFIG_KEY] = np.frombuffer(
            config_json.encode("utf-8"), dtype=np.uint8
        ).copy()
    if quality_baseline is not None:
        arrays[_QUALITY_KEY] = np.frombuffer(
            quality_baseline.to_json().encode("utf-8"), dtype=np.uint8
        ).copy()
    arrays[_SCHEMA_KEY] = np.asarray(SCHEMA_VERSION, dtype=np.int64)
    _atomic_savez(path, arrays)


def load_state(path: str | Path) -> dict[str, np.ndarray]:
    """Read the raw parameter dict from a checkpoint."""
    with _open_checkpoint(path) as bundle:
        _check_schema(bundle, path)
        return {
            name: bundle[name].copy()
            for name in bundle.files
            if name not in _META_KEYS
        }


def load_config(path: str | Path) -> STGNNDJDConfig:
    """Read the model configuration stored in a checkpoint."""
    with _open_checkpoint(path) as bundle:
        _check_schema(bundle, path)
        if _CONFIG_KEY not in bundle.files:
            raise KeyError(f"checkpoint {path} carries no model config")
        raw = bytes(bundle[_CONFIG_KEY]).decode("utf-8")
    fields = json.loads(raw)
    for key in _RETIRED_CONFIG_KEYS:
        fields.pop(key, None)
    return STGNNDJDConfig(**fields)


def load_quality_baseline(path: str | Path):
    """The training-time quality baseline embedded in a checkpoint.

    Returns a :class:`repro.obs.quality.QualityBaseline` or ``None``
    when the checkpoint predates (or was saved without) one.
    """
    from repro.obs.quality import QualityBaseline

    with _open_checkpoint(path) as bundle:
        _check_schema(bundle, path)
        if _QUALITY_KEY not in bundle.files:
            return None
        raw = bytes(bundle[_QUALITY_KEY]).decode("utf-8")
    return QualityBaseline.from_json(raw)


def load_stgnn(path: str | Path) -> STGNNDJD:
    """Rebuild a saved STGNN-DJD: config + parameters, ready for eval."""
    model = STGNNDJD(load_config(path))
    model.load_state_dict(load_state(path))
    model.eval()
    return model


# ----------------------------------------------------------------------
# Training snapshots (checkpoint + optimizer + RNG + loop state)
# ----------------------------------------------------------------------
_SNAP_META_KEY = "__snapshot_meta__"
_SNAP_SCHEMA_KEY = "__snapshot_version__"
_MODEL_PREFIX = "model/"
_ADAM_M_PREFIX = "adam.m/"
_ADAM_V_PREFIX = "adam.v/"
_BEST_PREFIX = "best/"


@dataclasses.dataclass(slots=True)
class TrainingSnapshot:
    """Everything the fit loop needs to continue bit-for-bit.

    Captured at an epoch boundary: ``epoch`` is the index of the last
    *completed* epoch; resuming re-enters the loop at ``epoch + 1`` with
    the RNG exactly where the boundary left it, so the continued run is
    bitwise identical to one that was never interrupted.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    adam_step_count: int
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    rng_state: dict
    train_loss: list[float]
    val_loss: list[float]
    best_epoch: int
    best_val: float
    bad_epochs: int
    best_state: dict[str, np.ndarray] | None
    fingerprint: str  # model class + config, for resume validation


def training_fingerprint(model: Module) -> str:
    """A stable identity for "is this snapshot from the same training?"."""
    config = getattr(model, "config", None)
    config_json = (
        json.dumps(dataclasses.asdict(config), sort_keys=True)
        if dataclasses.is_dataclass(config)
        else "{}"
    )
    return f"{type(model).__name__}:{config_json}"


def save_training_snapshot(path: str | Path, snapshot: TrainingSnapshot) -> None:
    """Atomically persist a :class:`TrainingSnapshot` to ``.npz``."""
    arrays: dict[str, np.ndarray] = {}
    for name, value in snapshot.model_state.items():
        arrays[_MODEL_PREFIX + name] = value
    for name, value in snapshot.adam_m.items():
        arrays[_ADAM_M_PREFIX + name] = value
    for name, value in snapshot.adam_v.items():
        arrays[_ADAM_V_PREFIX + name] = value
    for name, value in (snapshot.best_state or {}).items():
        arrays[_BEST_PREFIX + name] = value
    # json round-trips Python floats through repr, so history losses and
    # best_val come back bitwise identical; RNG state ints are exact.
    meta = json.dumps({
        "epoch": snapshot.epoch,
        "adam_step_count": snapshot.adam_step_count,
        "rng_state": snapshot.rng_state,
        "train_loss": snapshot.train_loss,
        "val_loss": snapshot.val_loss,
        "best_epoch": snapshot.best_epoch,
        "best_val": snapshot.best_val,
        "bad_epochs": snapshot.bad_epochs,
        "has_best_state": snapshot.best_state is not None,
        "fingerprint": snapshot.fingerprint,
    })
    arrays[_SNAP_META_KEY] = np.frombuffer(
        meta.encode("utf-8"), dtype=np.uint8
    ).copy()
    arrays[_SNAP_SCHEMA_KEY] = np.asarray(SNAPSHOT_VERSION, dtype=np.int64)
    _atomic_savez(path, arrays)


def load_training_snapshot(path: str | Path) -> TrainingSnapshot:
    """Read a training snapshot; corrupt or alien files fail loudly."""
    with _open_checkpoint(path) as bundle:
        files = set(bundle.files)
        if _SNAP_META_KEY not in files or _SNAP_SCHEMA_KEY not in files:
            raise CheckpointSchemaError(
                f"{path} is not a training snapshot (missing metadata)"
            )
        version = int(bundle[_SNAP_SCHEMA_KEY])
        if version != SNAPSHOT_VERSION:
            raise CheckpointSchemaError(
                f"training snapshot {path} has version {version}, but this "
                f"reader supports version {SNAPSHOT_VERSION}"
            )
        meta = json.loads(bytes(bundle[_SNAP_META_KEY]).decode("utf-8"))

        def strip(prefix: str) -> dict[str, np.ndarray]:
            return {
                name[len(prefix):]: bundle[name].copy()
                for name in files
                if name.startswith(prefix)
            }

        best_state = strip(_BEST_PREFIX) if meta["has_best_state"] else None
        return TrainingSnapshot(
            epoch=meta["epoch"],
            model_state=strip(_MODEL_PREFIX),
            adam_step_count=meta["adam_step_count"],
            adam_m=strip(_ADAM_M_PREFIX),
            adam_v=strip(_ADAM_V_PREFIX),
            rng_state=meta["rng_state"],
            train_loss=meta["train_loss"],
            val_loss=meta["val_loss"],
            best_epoch=meta["best_epoch"],
            best_val=meta["best_val"],
            bad_epochs=meta["bad_epochs"],
            best_state=best_state,
            fingerprint=meta["fingerprint"],
        )
