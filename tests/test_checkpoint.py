"""TRM1 checkpoint format: round-trips and corruption rejection."""

import os

import numpy as np
import pytest

from clozerm.checkpoint import (
    MAGIC,
    VERSION,
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from clozerm.model import ModelConfig, init_weights
from helpers import MALFORMED_CHECKPOINTS, malformed_checkpoint


def small_checkpoint(extra=None):
    config = ModelConfig(n_layers=1, hidden=4, n_heads=1, vocab_size=9, max_seq=8)
    weights = init_weights(config, seed=6)
    return Checkpoint(config=config, tensors=weights, extra=extra or {})


def test_round_trip_bitwise(tmp_path):
    path = tmp_path / "a.trm1"
    ckpt = small_checkpoint(extra={"vocab": ["x", "y"], "note": 3})
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        got = loaded.tensors[name]
        assert got.dtype == np.float32
        assert np.array_equal(got, arr)
    assert loaded.extra == ckpt.extra


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.trm1", tmp_path / "b.trm1"
    ckpt = small_checkpoint(extra={"k": 1})
    save_checkpoint(ckpt, a)
    save_checkpoint(ckpt, b)
    assert a.read_bytes() == b.read_bytes()


def test_magic_and_version_prefix(tmp_path):
    path = tmp_path / "a.trm1"
    save_checkpoint(small_checkpoint(), path)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == VERSION


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.trm1"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "v9.trm1"
    good = tmp_path / "good.trm1"
    save_checkpoint(small_checkpoint(), good)
    blob = bytearray(good.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    good = tmp_path / "good.trm1"
    save_checkpoint(small_checkpoint(), good)
    blob = good.read_bytes()
    bad = tmp_path / "cut.trm1"
    bad.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_invalid_tensor_name_rejected(tmp_path):
    ckpt = small_checkpoint()
    ckpt.tensors["with\nnewline"] = np.zeros(2, dtype=np.float32)
    with pytest.raises(CheckpointError):
        save_checkpoint(ckpt, tmp_path / "x.trm1")


def test_no_temp_files_left_behind(tmp_path):
    save_checkpoint(small_checkpoint(), tmp_path / "a.trm1")
    assert sorted(os.listdir(tmp_path)) == ["a.trm1"]


def test_float64_tensors_stored_as_float32(tmp_path):
    ckpt = small_checkpoint()
    ckpt.tensors["head.b"] = ckpt.tensors["head.b"].astype(np.float64)
    save_checkpoint(ckpt, tmp_path / "a.trm1")
    loaded = load_checkpoint(tmp_path / "a.trm1")
    assert loaded.tensors["head.b"].dtype == np.float32


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_malformed_file_raises_checkpoint_error(tmp_path, case):
    good = tmp_path / "good.trm1"
    save_checkpoint(small_checkpoint(), good)
    bad = tmp_path / "bad.trm1"
    bad.write_bytes(malformed_checkpoint(good.read_bytes(), case))
    with pytest.raises(CheckpointError, match=str(bad)):
        load_checkpoint(bad)
