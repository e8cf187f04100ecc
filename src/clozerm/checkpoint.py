"""Versioned binary checkpoint format (TRM1).

Layout, all integers little-endian:

    magic  "TRM1"                       4 bytes
    format version                      u32
    manifest length in bytes            u32
    manifest text, one line per tensor  "name dim0xdim1x... offset\\n"
    payload length in bytes             u64
    payload: raw little-endian float32 tensor data at the listed offsets
    config length in bytes              u32
    config JSON: {"model": {...}, "extra": {...}}

Readers reject unknown versions, tensors whose byte ranges overlap or
leave payload bytes unread, non-finite weights, bytes after the
config block, and base tensors whose names or shapes differ from the model
config's manifest. Adapter tensors travel under
names prefixed "adapter." next to the base weights, with their rank and
targets recorded in the config block; peft checks those.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError
from .fileio import atomic_write_bytes
from .model import ModelConfig, manifest
from .tokenizer import Tokenizer

MAGIC = b"TRM1"
VERSION = 1


@dataclass
class Checkpoint:
    config: ModelConfig
    tensors: dict
    extra: dict = field(default_factory=dict)


def _validate_name(name: str) -> None:
    if not name or any(c.isspace() for c in name):
        raise CheckpointError(f"invalid tensor name {name!r}")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    manifest_lines = []
    payload_parts = []
    offset = 0
    for name, arr in ckpt.tensors.items():
        _validate_name(name)
        arr = np.asarray(arr, dtype=np.float32)
        dims = "x".join(str(d) for d in arr.shape)
        manifest_lines.append(f"{name} {dims} {offset}\n")
        raw = arr.astype("<f4", copy=False).tobytes(order="C")
        payload_parts.append(raw)
        offset += len(raw)
    manifest = "".join(manifest_lines).encode("utf-8")
    payload = b"".join(payload_parts)
    config_block = json.dumps(
        {"model": dataclasses.asdict(ckpt.config), "extra": ckpt.extra},
        sort_keys=True,
        ensure_ascii=False,
    ).encode("utf-8")

    blob = bytearray()
    blob += MAGIC
    blob += VERSION.to_bytes(4, "little")
    blob += len(manifest).to_bytes(4, "little")
    blob += manifest
    blob += len(payload).to_bytes(8, "little")
    blob += payload
    blob += len(config_block).to_bytes(4, "little")
    blob += config_block
    atomic_write_bytes(path, bytes(blob))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("checkpoint file is truncated")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "little")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: not a TRM1 checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint format version {version}")
    try:
        lines = r.take(r.u32()).decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: manifest is not UTF-8: {exc}") from exc
    payload = r.take(r.u64())

    entries = []
    for line_no, line in enumerate(lines, start=1):
        try:
            name, dims, offset = line.split(" ")
            shape = tuple(int(d) for d in dims.split("x")) if dims else ()
            entries.append((name, shape, int(offset)))
        except ValueError as exc:
            raise CheckpointError(f"{path}: malformed manifest line {line_no}: {exc}") from exc
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: negative dimension on manifest line {line_no}: {dims}")

    spans = {}
    for name, shape, offset in entries:
        if name in spans:
            raise CheckpointError(f"{path}: duplicate tensor {name}")
        end = offset + 4 * math.prod(shape)  # Python ints: a huge shape must not wrap
        if offset < 0 or end > len(payload):
            raise CheckpointError(f"{path}: tensor {name} lies outside the payload")
        spans[name] = (offset, end)
    # The tensors' byte ranges tile the payload: none shares or skips a byte.
    at, before = 0, "the payload's start"
    for offset, end, name in sorted((offset, end, name) for name, (offset, end) in spans.items()):
        if offset != at:
            how = "overlaps" if offset < at else f"starts {offset - at} bytes after"
            raise CheckpointError(f"{path}: tensor {name} {how} {before}")
        at, before = end, f"tensor {name}"
    if at != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - at} payload bytes follow {before}")

    tensors = {}
    for name, shape, offset in entries:
        count = math.prod(shape)
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name} holds non-finite values")
        tensors[name] = arr.astype(np.float32, copy=True).reshape(shape)

    try:
        cfg = json.loads(r.take(r.u32()).decode("utf-8"))
        config = ModelConfig(**cfg["model"])
        extra = cfg.get("extra", {})
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed config block: {exc}") from exc
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.pos} trailing bytes after the config block")

    expected = dict(manifest(config))
    for name in tensors:
        if not name.startswith("adapter.") and name not in expected:
            raise CheckpointError(f"{path}: tensor {name} is not in the model's manifest")
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: tensor {name} is missing")
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: tensor {name} has shape {tensors[name].shape}, not {shape}")
    return Checkpoint(config=config, tensors=tensors, extra=extra)


def stored_tokenizer(ckpt: Checkpoint) -> Tokenizer:
    """The tokenizer over the checkpoint's stored vocabulary; a missing
    vocabulary, or one Tokenizer or the embedding table rejects, raises
    CheckpointError."""
    vocab = ckpt.extra.get("vocab")
    size = ckpt.config.vocab_size
    if not isinstance(vocab, list) or len(vocab) != size or not all(isinstance(t, str) for t in vocab):
        raise CheckpointError(f"checkpoint lacks a stored vocabulary of {size} token strings")
    try:
        return Tokenizer(vocab)
    except ConfigError as exc:
        raise CheckpointError(f"stored vocabulary is invalid: {exc}") from exc
