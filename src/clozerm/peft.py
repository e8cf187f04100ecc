"""DoRA adapters, layer freezing, adapter merging, and specialist averaging.

A DoRA adapter re-expresses a frozen base matrix W0 as a trainable
magnitude per output feature times a normalized direction, with the
direction updated through the low-rank product B @ A:

    W' = m * (W0 + B @ A) / max(rownorm(W0 + B @ A), 1e-8)

Adapter matrices follow the output-by-input convention (rows are output
features), so magnitudes and norms are per row as stored. Encoder weights
are stored input-by-output, which is why attachment points at the
transpose; the two views describe the same per-output-feature quantity.

The formula is one tape op, ``tensor.dora_weight``, computed in closed
form on the base as the encoder stores it: V^T = W0^T + A^T @ B^T is formed
input-by-output, its column norms n are column dots, and the result
V^T * (m / n) is a C-ordered array laid out like every full-rank weight, so
training, held-out scoring and ``merge`` run the same matmuls on it. Its backward is the DoRA paper's closed form (Liu et al.
2024, arXiv 2402.09353). Adapters are identity-initialized exactly: B = 0
and m is ``tensor.dora_norm`` of the stored base, the norm the op itself
computes, so m / n is exactly 1 and a fresh adapter gives back its base bit
for bit, all-zero columns included.
"""

import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint
from .errors import CheckpointError, ConfigError, ContractError
from .tensor import Tensor, dora_norm, dora_weight

ADAPTER_ROLES = ("wq", "wk", "wv", "wo", "w1", "w2")

_LAYER_RE = re.compile(r"^layer(\d+)\.")


@dataclass(frozen=True)
class AdapterTargets:
    """Which weight-matrix roles receive adapters; defaults to all six."""

    roles: tuple = ADAPTER_ROLES

    def __post_init__(self):
        roles = tuple(self.roles)
        if not roles:
            raise ConfigError("adapter targets must be non-empty when DoRA is enabled")
        unknown = [r for r in roles if r not in ADAPTER_ROLES]
        if unknown:
            raise ConfigError(f"unknown adapter target roles: {unknown}")
        if len(set(roles)) != len(roles):
            raise ConfigError("duplicate adapter target roles")
        object.__setattr__(self, "roles", roles)


@dataclass
class DoraAdapter:
    """Magnitude vector plus low-rank direction update for one base matrix."""

    base_name: str
    A: Tensor  # rank x d_in
    B: Tensor  # d_out x rank
    m: Tensor  # d_out
    rank: int


@dataclass
class FreezeSpec:
    """How many lower layers to exclude from optimization.

    Embeddings freeze by default whenever any layer does.
    """

    n_frozen_layers: int = 0
    freeze_embeddings: bool = None

    def __post_init__(self):
        if self.n_frozen_layers < 0:
            raise ConfigError("n_frozen_layers must be non-negative")

    def check(self, n_layers: int, adapters: bool = False) -> None:
        """ConfigError unless the frozen layers fit an n_layers model and,
        with adapters, leave at least one layer for them to attach to."""
        if self.n_frozen_layers > n_layers:
            raise ConfigError(f"cannot freeze {self.n_frozen_layers} layers of a {n_layers}-layer model")
        if adapters and self.n_frozen_layers == n_layers:
            raise ConfigError(f"DoRA has no layer to adapt: all {n_layers} layers are frozen")

    @property
    def embeddings_frozen(self) -> bool:
        if self.freeze_embeddings is None:
            return self.n_frozen_layers > 0
        return self.freeze_embeddings


def dora_init(w0, rank: int, rng=None, base_name: str = "") -> DoraAdapter:
    """Identity-initialized adapter for a base w0 stored output-by-input:
    B = 0, m = the norms dora_weight computes on w0's transpose (so the
    adapted weight is exactly w0), A uniform in [-1/sqrt(d_in), 1/sqrt(d_in)]."""
    w0 = w0.data if isinstance(w0, Tensor) else np.asarray(w0, dtype=np.float32)
    if w0.ndim != 2:
        raise ConfigError("DoRA adapts 2-D matrices only")
    d_out, d_in = w0.shape
    if not 1 <= rank <= min(d_out, d_in):
        raise ConfigError(f"rank {rank} out of range for a {d_out}x{d_in} matrix")
    rng = np.random.default_rng(rng if rng is not None else 0)
    bound = 1.0 / np.sqrt(d_in)
    a = rng.uniform(-bound, bound, size=(rank, d_in)).astype(np.float32)
    b = np.zeros((d_out, rank), dtype=np.float32)
    m = dora_norm(np.ascontiguousarray(w0.T))
    return DoraAdapter(
        base_name=base_name,
        A=Tensor(a, requires_grad=True),
        B=Tensor(b, requires_grad=True),
        m=Tensor(m, requires_grad=True),
        rank=rank,
    )


def infer_n_layers(weights) -> int:
    """Number of encoder layers present in a weight dict."""
    top = -1
    for name in weights:
        match = _LAYER_RE.match(name)
        if match:
            top = max(top, int(match.group(1)))
    return top + 1


def apply_freeze(weights, spec: FreezeSpec):
    """Names of the trainable parameters, in weight-dict order.

    Frozen layers 0..k-1 (and embeddings when flagged) are excluded
    entirely; everything else, including adapter tensors, passes through.
    """
    spec.check(infer_n_layers(weights))
    frozen_prefixes = tuple(f"layer{i}." for i in range(spec.n_frozen_layers))
    trainable = []
    for name in weights:
        if spec.embeddings_frozen and name in ("tok_emb", "pos_emb"):
            continue
        if name.startswith(frozen_prefixes):
            continue
        trainable.append(name)
    return trainable


def attach_adapters(weights, rank: int, targets: AdapterTargets, freeze: FreezeSpec, rng=None):
    """Create identity-initialized adapters on every targeted matrix of the
    non-frozen layers; returns a dict keyed by base weight name. With every
    layer frozen there is nothing to adapt, which raises ConfigError.

    Base matrices are stored input-by-output, so each adapter is built over
    the transposed view to keep magnitudes per output feature.
    """
    n_layers = infer_n_layers(weights)
    freeze.check(n_layers, adapters=True)
    rng = np.random.default_rng(rng if rng is not None else 0)
    adapters = {}
    for i in range(freeze.n_frozen_layers, n_layers):
        for role in ADAPTER_ROLES:
            if role not in targets.roles:
                continue
            name = f"layer{i}.{role}"
            adapters[name] = dora_init(np.asarray(weights[name]).T, rank, rng=rng, base_name=name)
    return adapters


def adapted_forward_weights(weights, adapters):
    """Weight dict for the forward pass with adapted matrices replaced by
    their effective values (tape-recorded, so gradients reach A, B, m)."""
    if not adapters:
        return weights
    out = dict(weights)
    for name, ad in adapters.items():
        out[name] = dora_weight(weights[name], ad.A, ad.B, ad.m)
    return out


def adapter_tensors(adapters) -> dict:
    """Flatten adapters into checkpoint tensors under the 'adapter.' prefix."""
    return {f"adapter.{name}.{p}": getattr(ad, p).data for name, ad in adapters.items() for p in "ABm"}


def adapters_from_checkpoint(ckpt: Checkpoint) -> dict:
    """Rebuild trainable DoraAdapter objects from 'adapter.*' tensors; a
    missing dora block or rank, a missing, misplaced or misshapen adapter
    tensor raises CheckpointError."""
    parts = {}
    for name in ckpt.tensors:
        if name.startswith("adapter."):
            base, _, part = name[len("adapter.") :].rpartition(".")
            parts.setdefault(base, set()).add(part)
    dora_info = ckpt.extra.get("dora")
    if not dora_info:
        if parts:
            raise CheckpointError("checkpoint has adapter tensors but no dora block")
        return {}
    rank = dora_info.get("rank") if isinstance(dora_info, dict) else None
    if type(rank) is not int or rank < 1:
        raise CheckpointError(f"dora block needs a positive integer rank, got {rank!r}")
    adapters = {}
    for base in sorted(parts):
        w0 = ckpt.tensors.get(base)
        if w0 is None or w0.ndim != 2:
            raise CheckpointError(f"adapter on {base!r}, which is not a 2-D base weight")
        if parts[base] != {"A", "B", "m"}:
            raise CheckpointError(f"adapter {base} has tensors {sorted(parts[base])}, not A, B and m")
        d_in, d_out = w0.shape
        tensors = {}
        for part, shape in (("A", (rank, d_in)), ("B", (d_out, rank)), ("m", (d_out,))):
            arr = ckpt.tensors[f"adapter.{base}.{part}"]
            if arr.shape != shape:
                raise CheckpointError(f"adapter.{base}.{part} has shape {arr.shape}, not {shape} (rank {rank})")
            tensors[part] = Tensor(arr.copy(), requires_grad=True)
        adapters[base] = DoraAdapter(base_name=base, rank=rank, **tensors)
    return adapters


def merge_adapters(weights, adapters) -> dict:
    """Arrays of a base weight dict (arrays or Tensors) with every adapted
    matrix replaced by its folded, input-by-output DoRA value; the other
    entries are the given arrays, uncopied, in the same order."""
    out = {name: w.data if isinstance(w, Tensor) else w for name, w in weights.items()}
    for name, ad in adapters.items():
        out[name] = dora_weight(out[name], ad.A, ad.B, ad.m).data
    return out


def merge_checkpoint(ckpt: Checkpoint) -> Checkpoint:
    """Fold any adapters into the base weights; parameter count returns to
    the base count and FLOPs/token match the never-adapted model."""
    base = {name: arr.copy() for name, arr in ckpt.tensors.items() if not name.startswith("adapter.")}
    tensors = merge_adapters(base, adapters_from_checkpoint(ckpt))
    extra = {k: v for k, v in ckpt.extra.items() if k != "dora"}
    return Checkpoint(config=ckpt.config, tensors=tensors, extra=extra)


def weight_average(checkpoints) -> Checkpoint:
    """Elementwise arithmetic mean of every named tensor across checkpoints.

    Per-element values are sorted before summation, so the result is
    bitwise invariant to the order of the input list.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ContractError("weight_average requires at least one checkpoint")
    first = checkpoints[0]
    first_cfg = dataclasses.asdict(first.config)
    for ck in checkpoints[1:]:
        if dataclasses.asdict(ck.config) != first_cfg:
            raise ContractError("checkpoint configs differ; cannot average")
    names = list(first.tensors)
    for ck in checkpoints[1:]:
        other = list(ck.tensors)
        for mine, theirs in zip(names, other):
            if mine != theirs:
                raise ContractError(f"tensor manifests differ at {mine!r} vs {theirs!r}")
        if len(other) != len(names):
            longer = other if len(other) > len(names) else names
            raise ContractError(f"tensor manifests differ at {longer[min(len(other), len(names))]!r}")
    for name in names:
        if name.startswith("adapter."):
            raise ContractError(f"unmerged adapter tensor {name!r}; merge before averaging")
        shapes = {ck.tensors[name].shape for ck in checkpoints}
        if len(shapes) > 1:
            raise ContractError(f"tensor {name!r} has mismatched shapes {sorted(shapes)}")

    n = len(checkpoints)
    tensors = {}
    for name in names:
        stacked = np.stack([ck.tensors[name] for ck in checkpoints]).astype(np.float64)
        stacked.sort(axis=0)
        tensors[name] = (stacked.sum(axis=0) / n).astype(np.float32)

    extra = {}
    vocabs = [ck.extra.get("vocab") for ck in checkpoints]
    if any(v != vocabs[0] for v in vocabs):
        raise ContractError("checkpoint vocabularies differ; cannot average")
    if vocabs[0] is not None:
        extra["vocab"] = vocabs[0]
    templates = [ck.extra.get("template") for ck in checkpoints]
    if templates[0] is not None and all(t == templates[0] for t in templates):
        extra["template"] = templates[0]
    extra["averaged_from"] = n
    return Checkpoint(config=first.config, tensors=tensors, extra=extra)
