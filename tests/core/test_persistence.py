"""Checkpoint save/load round-trips, corruption handling, atomic writes."""

import glob
import json
import struct
import zipfile

import numpy as np
import pytest

from repro.core import (
    SCHEMA_VERSION,
    SNAPSHOT_VERSION,
    STGNNDJD,
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
from repro.core import persistence
from repro.nn import Linear
from repro.tensor import no_grad


class TestCheckpoint:
    def test_roundtrip_preserves_predictions(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        restored = load_stgnn(path)

        model.eval()
        sample = tiny_dataset.sample(tiny_dataset.min_history)
        with no_grad():
            d1, s1 = model(sample)
            d2, s2 = restored(sample)
        np.testing.assert_allclose(d1.data, d2.data)
        np.testing.assert_allclose(s1.data, s2.data)

    def test_config_restored(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0, num_heads=2,
                                      fcg_layers=1)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        config = load_config(path)
        assert config.num_heads == 2
        assert config.fcg_layers == 1
        assert config.num_stations == tiny_dataset.num_stations

    def test_loaded_model_in_eval_mode(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert not load_stgnn(path).training

    def test_state_only_for_plain_module(self, tmp_path, rng):
        layer = Linear(3, 2, rng=rng)
        path = tmp_path / "layer.npz"
        save_checkpoint(layer, path)
        state = load_state(path)
        np.testing.assert_allclose(state["weight"], layer.weight.data)
        with pytest.raises(KeyError):
            load_config(path)  # no config stored for a bare module

    def test_state_is_a_copy(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        before = model.predictor.weight.data.copy()
        model.predictor.weight.data[:] = 123.0
        restored = load_stgnn(path)
        np.testing.assert_allclose(restored.predictor.weight.data, before)


class TestSchemaVersion:
    def _legacy_checkpoint(self, model, path):
        """Re-save a checkpoint without the schema field (pre-version files)."""
        with np.load(path) as bundle:
            arrays = {
                name: bundle[name]
                for name in bundle.files
                if name != "__schema_version__"
            }
        np.savez(path, **arrays)

    def test_new_checkpoints_carry_current_version(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        with np.load(path) as bundle:
            assert int(bundle["__schema_version__"]) == SCHEMA_VERSION

    def test_schema_key_not_leaked_into_state(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        save_checkpoint(model, path)
        assert set(load_state(path)) == set(model.state_dict())

    def test_legacy_versionless_checkpoint_still_loads(
        self, tiny_dataset, tmp_path
    ):
        path = tmp_path / "model.npz"
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        save_checkpoint(model, path)
        self._legacy_checkpoint(model, path)
        with np.load(path) as bundle:
            assert "__schema_version__" not in bundle.files
        restored = load_stgnn(path)
        np.testing.assert_allclose(
            restored.predictor.weight.data, model.predictor.weight.data
        )

    def _rewrite_config(self, path, **extra):
        """Re-save a checkpoint whose config JSON carries extra keys."""
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        config = json.loads(bytes(arrays["__config_json__"]).decode("utf-8"))
        config.update(extra)
        arrays["__config_json__"] = np.frombuffer(
            json.dumps(config).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **arrays)

    def test_checkpoint_with_retired_graph_keys_still_loads(
        self, tiny_dataset, tmp_path
    ):
        # Checkpoints written while the top-k sparse graph option existed
        # carry its three config keys; the parameters are the same.
        path = tmp_path / "model.npz"
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        save_checkpoint(model, path)
        self._rewrite_config(
            path, graph_mode="sparse", graph_top_k=4, graph_block_rows=3
        )
        restored = load_stgnn(path)
        assert restored.config == model.config
        model.eval()
        sample = tiny_dataset.sample(tiny_dataset.min_history)
        with no_grad():
            d1, s1 = model(sample)
            d2, s2 = restored(sample)
        np.testing.assert_array_equal(d2.data, d1.data)
        np.testing.assert_array_equal(s2.data, s1.data)

    def test_unknown_config_key_still_fails(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        self._rewrite_config(path, graph_mode="dense", attention_kind="dot")
        with pytest.raises(TypeError, match="attention_kind"):
            load_config(path)

    def test_version_mismatch_fails_loudly(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        arrays["__schema_version__"] = np.asarray(SCHEMA_VERSION + 7,
                                                  dtype=np.int64)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointSchemaError, match="schema version"):
            load_stgnn(path)
        with pytest.raises(CheckpointSchemaError):
            load_state(path)
        with pytest.raises(CheckpointSchemaError):
            load_config(path)


class TestCorruptCheckpoints:
    """Damaged files raise a clean error — never load garbage weights."""

    @pytest.fixture
    def checkpoint(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        return path

    def _assert_unreadable(self, path):
        for reader in (load_stgnn, load_state, load_config):
            with pytest.raises(CheckpointCorruptError):
                reader(path)

    def test_truncated_file(self, checkpoint):
        data = checkpoint.read_bytes()
        checkpoint.write_bytes(data[: len(data) // 2])
        self._assert_unreadable(checkpoint)

    def test_severely_truncated_file(self, checkpoint):
        checkpoint.write_bytes(checkpoint.read_bytes()[:10])
        self._assert_unreadable(checkpoint)

    def test_bit_flip_in_an_array_member(self, checkpoint):
        # Flip one byte inside the CRC-protected payload of a weight
        # member and of the config member (so every reader, including
        # config-only loads, touches damage). The zip central directory
        # still parses, so np.load only fails lazily at member read —
        # the normalisation must catch that path too.
        data = bytearray(checkpoint.read_bytes())
        with zipfile.ZipFile(checkpoint) as archive:
            headers = {
                info.filename: info.header_offset
                for info in archive.infolist()
            }
        for member in ("predictor.weight.npy", "__config_json__.npy"):
            header = headers[member]
            name_len, extra_len = struct.unpack(
                "<HH", data[header + 26:header + 30]
            )
            payload = header + 30 + name_len + extra_len
            data[payload + 80] ^= 0xFF  # past the npy magic, inside data
        checkpoint.write_bytes(bytes(data))
        self._assert_unreadable(checkpoint)

    def test_not_an_archive_at_all(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"definitely not a zip file")
        self._assert_unreadable(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "model.npz"
        path.write_bytes(b"")
        self._assert_unreadable(path)

    def test_missing_file_is_not_corruption(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_stgnn(tmp_path / "never-written.npz")

    def test_corruption_error_is_a_checkpoint_error(self):
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointSchemaError, CheckpointError)


class TestAtomicWrites:
    def test_no_temp_files_survive_a_save(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        assert glob.glob(str(tmp_path / ".model.npz.tmp.*")) == []

    def test_failed_write_leaves_previous_checkpoint_intact(
        self, tiny_dataset, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.npz"
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        save_checkpoint(model, path)
        good = path.read_bytes()

        def exploding_savez(fh, **arrays):
            fh.write(b"partial garbage")  # simulate dying mid-serialise
            raise OSError("disk full")

        monkeypatch.setattr(persistence.np, "savez", exploding_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert path.read_bytes() == good  # old file untouched
        assert glob.glob(str(tmp_path / ".model.npz.tmp.*")) == []


class TestTrainingSnapshots:
    def _snapshot(self, model) -> TrainingSnapshot:
        return TrainingSnapshot(
            epoch=4,
            model_state=model.state_dict(),
            adam_step_count=37,
            adam_m={"0000": np.arange(3.0)},
            adam_v={"0000": np.arange(3.0) ** 2},
            rng_state=np.random.default_rng(9).bit_generator.state,
            train_loss=[0.5, 0.25],
            val_loss=[0.6, 0.3],
            best_epoch=1,
            best_val=0.3,
            bad_epochs=0,
            best_state=model.state_dict(),
            fingerprint=training_fingerprint(model),
        )

    def test_roundtrip_is_exact(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        snapshot = self._snapshot(model)
        path = tmp_path / "snap.npz"
        save_training_snapshot(path, snapshot)
        loaded = load_training_snapshot(path)
        assert loaded.epoch == snapshot.epoch
        assert loaded.adam_step_count == snapshot.adam_step_count
        assert loaded.rng_state == snapshot.rng_state  # big ints exact
        assert loaded.train_loss == snapshot.train_loss  # floats bitwise
        assert loaded.best_val == snapshot.best_val
        assert loaded.fingerprint == snapshot.fingerprint
        for name, value in snapshot.model_state.items():
            np.testing.assert_array_equal(loaded.model_state[name], value)
        np.testing.assert_array_equal(loaded.adam_m["0000"], np.arange(3.0))
        for name, value in snapshot.best_state.items():
            np.testing.assert_array_equal(loaded.best_state[name], value)

    def test_model_checkpoint_is_not_a_snapshot(self, tiny_dataset, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(STGNNDJD.from_dataset(tiny_dataset, seed=0), path)
        with pytest.raises(CheckpointSchemaError, match="not a training snapshot"):
            load_training_snapshot(path)

    def test_snapshot_version_mismatch_rejected(
        self, tiny_dataset, tmp_path
    ):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        path = tmp_path / "snap.npz"
        save_training_snapshot(path, self._snapshot(model))
        with np.load(path) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
        arrays["__snapshot_version__"] = np.asarray(
            SNAPSHOT_VERSION + 5, dtype=np.int64
        )
        np.savez(path, **arrays)
        with pytest.raises(CheckpointSchemaError, match="version"):
            load_training_snapshot(path)

    def test_corrupt_snapshot_raises_cleanly(self, tiny_dataset, tmp_path):
        model = STGNNDJD.from_dataset(tiny_dataset, seed=0)
        path = tmp_path / "snap.npz"
        save_training_snapshot(path, self._snapshot(model))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 3])
        with pytest.raises(CheckpointCorruptError):
            load_training_snapshot(path)
