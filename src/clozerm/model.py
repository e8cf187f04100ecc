"""Bidirectional transformer encoder with three interchangeable heads.

Pre-layer-norm residual blocks, learned absolute position embeddings,
tanh-approximation GELU, and no causal mask anywhere: every position
attends to the full sequence. Linear projections carry no bias; the head
does. Projection matrices are stored input-by-output, so the forward pass
is a plain ``x @ W``.

The three heads mirror the three training paradigms: ``mlm`` predicts
full-vocabulary logits at one masked position, ``pooled-classifier``
reduces the sequence (CLS token or mean) to a two-way decision, and
``token-classifier`` emits one scalar score per token.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import (
    Tensor,
    add,
    gather_rows,
    layer_norm,
    matmul,
    reshape,
    residual_attention,
    residual_ffn,
    tmean,
)
from .tokenizer import CLS_ID, MASK_ID

HEAD_MLM = "mlm"
HEAD_POOLED = "pooled-classifier"
HEAD_TOKEN = "token-classifier"
HEAD_KINDS = (HEAD_MLM, HEAD_POOLED, HEAD_TOKEN)

POOLING_KINDS = ("cls", "mean")


@dataclass
class ModelConfig:
    n_layers: int
    hidden: int
    n_heads: int
    vocab_size: int
    max_seq: int
    ffn_mult: int = 4
    head_kind: str = HEAD_MLM
    pooling: str = None

    def __post_init__(self):
        for field_name in ("hidden", "n_heads", "vocab_size", "max_seq", "ffn_mult"):
            if getattr(self, field_name) < 1:
                raise ConfigError(f"{field_name} must be a positive integer")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be non-negative")
        if self.hidden % self.n_heads != 0:
            raise ConfigError(
                f"hidden ({self.hidden}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"unknown head_kind {self.head_kind!r}")
        if self.head_kind == HEAD_POOLED:
            if self.pooling not in POOLING_KINDS:
                raise ConfigError("pooled-classifier requires pooling 'cls' or 'mean'")
        elif self.pooling is not None:
            raise ConfigError("pooling is only meaningful for the pooled-classifier head")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    @property
    def head_out(self) -> int:
        return {HEAD_MLM: self.vocab_size, HEAD_POOLED: 2, HEAD_TOKEN: 1}[self.head_kind]


def manifest(config: ModelConfig):
    """Ordered (name, shape) list of every stored weight tensor."""
    h, f = config.hidden, config.ffn_mult * config.hidden
    entries = [
        ("tok_emb", (config.vocab_size, h)),
        ("pos_emb", (config.max_seq, h)),
    ]
    for i in range(config.n_layers):
        p = f"layer{i}."
        entries += [
            (p + "ln1.gain", (h,)),
            (p + "ln1.bias", (h,)),
            (p + "wq", (h, h)),
            (p + "wk", (h, h)),
            (p + "wv", (h, h)),
            (p + "wo", (h, h)),
            (p + "ln2.gain", (h,)),
            (p + "ln2.bias", (h,)),
            (p + "w1", (h, f)),
            (p + "w2", (f, h)),
        ]
    entries += [
        ("final_ln.gain", (h,)),
        ("final_ln.bias", (h,)),
        ("head.w", (h, config.head_out)),
        ("head.b", (config.head_out,)),
    ]
    return entries


def count_params(config: ModelConfig) -> int:
    """Exact number of stored weight scalars, summed over the manifest."""
    return sum(int(np.prod(shape)) for _, shape in manifest(config))


INIT_STD = 0.1


def init_weights(config: ModelConfig, seed=0):
    """Seeded weight dict in manifest order: N(0, INIT_STD) projections and
    embeddings, unit layer-norm gains, zero biases.

    INIT_STD is 0.1, not the 0.02 common for 768-wide encoders: scale must
    grow as width shrinks (0.02 * sqrt(768 / 64) is about 0.07) or attention
    logits start too uniform to differentiate within short training budgets.
    """
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in manifest(config):
        if name.endswith(".gain"):
            weights[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias") or name == "head.b":
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            weights[name] = rng.normal(0.0, INIT_STD, size=shape).astype(np.float32)
    return weights


def _get(weights, name) -> Tensor:
    w = weights[name]
    return w if isinstance(w, Tensor) else Tensor(w)


def _batch_shape(config, ids: np.ndarray):
    """(batch, seq) of a non-empty [batch, seq] id array that fits max_seq."""
    if ids.ndim != 2:
        raise ShapeError("token ids must be a [batch, seq] array")
    batch, seq = ids.shape
    if batch < 1:
        raise ShapeError("empty batch")
    if seq > config.max_seq:
        raise ShapeError(
            f"sequence length {seq} exceeds max_seq {config.max_seq};"
            " callers must truncate first"
        )
    if seq < 1:
        raise ShapeError("empty sequence")
    return batch, seq


def _check_ids(config, ids: np.ndarray):
    """_batch_shape, with every id checked against the vocabulary."""
    shape = _batch_shape(config, ids)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise IndexError(f"token id out of range for vocabulary of {config.vocab_size}")
    return shape


def _embed(weights, ids: np.ndarray, batch: int, seq: int) -> Tensor:
    positions = np.tile(np.arange(seq, dtype=np.int64), batch)
    return add(
        gather_rows(_get(weights, "tok_emb"), ids.reshape(-1)),
        gather_rows(_get(weights, "pos_emb"), positions),
    )


def embed(weights, config: ModelConfig, ids: np.ndarray) -> Tensor:
    """Token plus position embeddings of [batch, seq] ids: the hidden
    states entering layer 0, [batch*seq, hidden]."""
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = _check_ids(config, ids)
    return _embed(weights, ids, batch, seq)


def run_layers(weights, config: ModelConfig, x: Tensor, seq: int, layers, query=None) -> Tensor:
    """Run the encoder layers in `layers`, consecutive and ascending, over
    the hidden states x, [batch*seq, hidden], entering the first of them.

    query, an int array [batch] of positions, applies at the model's last
    layer when it is among `layers`: that layer computes attention queries
    and FFN at each sequence's query row alone and returns [batch, hidden],
    since nothing else reads the other rows."""
    for i in layers:
        p = f"layer{i}."
        a = layer_norm(x, _get(weights, p + "ln1.gain"), _get(weights, p + "ln1.bias"))
        x = residual_attention(
            x, a, *(_get(weights, p + w) for w in ("wq", "wk", "wv", "wo")),
            seq, config.n_heads, query=query if i == config.n_layers - 1 else None,
        )
        b = layer_norm(x, _get(weights, p + "ln2.gain"), _get(weights, p + "ln2.bias"))
        x = residual_ffn(x, b, _get(weights, p + "w1"), _get(weights, p + "w2"))
    return x


def final_norm(weights, x: Tensor) -> Tensor:
    """The final layer norm of the last layer's hidden states."""
    return layer_norm(x, _get(weights, "final_ln.gain"), _get(weights, "final_ln.bias"))


def encode_batch(weights, config: ModelConfig, ids: np.ndarray, query=None, x=None, start=0) -> Tensor:
    """Run the encoder stack on [batch, seq] ids; returns [batch*seq, hidden]
    final hidden states (after the final layer norm): embed, run_layers
    over every layer, final_norm.

    With query, an int array [batch] of positions, returns only each
    sequence's hidden state at its query position, [batch, hidden] (see
    run_layers).

    With x, the [batch*seq, hidden] hidden states entering layer start
    (0 < start < n_layers) for these ids, only layers start.. run, so a
    training run whose embeddings and lower layers are frozen computes
    their states outside the step. The last layer always runs here, so its
    query rows are those of a forward from the ids, bit for bit. The ids
    are checked either way."""
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = _check_ids(config, ids)
    if query is not None:
        query = np.asarray(query, dtype=np.int64)
        if query.shape != (batch,) or (query < 0).any() or (query >= seq).any():
            raise ContractError("query must hold one position inside each sequence")

    if x is None:
        if start != 0:
            raise ContractError("a start layer needs the hidden states entering it")
        x = _embed(weights, ids, batch, seq)
        if query is not None and config.n_layers == 0:
            x = gather_rows(x, np.arange(batch, dtype=np.int64) * seq + query)
    else:
        if not 0 < start < config.n_layers:
            raise ContractError(f"start layer {start} outside [1, {config.n_layers - 1}]")
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.shape != (batch * seq, config.hidden):
            raise ShapeError(f"hidden states {x.shape} do not fit {batch} sequences of {seq}")

    return final_norm(weights, run_layers(weights, config, x, seq, range(start, config.n_layers), query))


def _head(weights, rows: Tensor) -> Tensor:
    return add(matmul(rows, _get(weights, "head.w")), _get(weights, "head.b"))


def forward_mlm_batch(weights, config: ModelConfig, ids: np.ndarray, mask_positions, x=None, start=0) -> Tensor:
    """Full-vocabulary logits at each sequence's mask position: [batch, vocab].
    x and start: the hidden states entering layer start, as encode_batch
    takes them."""
    if config.head_kind != HEAD_MLM:
        raise ContractError(f"forward_mlm_batch requires the mlm head, got {config.head_kind}")
    ids = np.asarray(ids, dtype=np.int64)
    pos = np.asarray(mask_positions, dtype=np.int64)
    batch, seq = _batch_shape(config, ids)
    if pos.shape != (batch,):
        raise ShapeError("mask_positions must have one entry per sequence")
    if (pos < 0).any() or (pos >= seq).any():
        raise ContractError("mask position outside the sequence")
    if (ids[np.arange(batch), pos] != MASK_ID).any():
        raise ContractError("mask position does not hold the mask token")
    return _head(weights, encode_batch(weights, config, ids, query=pos, x=x, start=start))


def forward_pooled_batch(weights, config: ModelConfig, ids: np.ndarray, x=None, start=0) -> Tensor:
    """Two-way logits from pooled final hidden states: [batch, 2]. x and
    start as encode_batch takes them."""
    if config.head_kind != HEAD_POOLED:
        raise ContractError(f"forward_pooled_batch requires the pooled-classifier head, got {config.head_kind}")
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = _batch_shape(config, ids)
    if config.pooling == "cls":
        if (ids[:, 0] != CLS_ID).any():
            raise ContractError("cls pooling requires sequences to start with the CLS token")
        pooled = encode_batch(weights, config, ids, query=np.zeros(batch, dtype=np.int64), x=x, start=start)
    else:
        hidden = encode_batch(weights, config, ids, x=x, start=start)
        pooled = tmean(reshape(hidden, (batch, seq, config.hidden)), axis=1)
    return _head(weights, pooled)


def forward_token_batch(weights, config: ModelConfig, ids: np.ndarray, x=None, start=0) -> Tensor:
    """One scalar logit per token: [batch, seq]. x and start as
    encode_batch takes them."""
    if config.head_kind != HEAD_TOKEN:
        raise ContractError(f"forward_token_batch requires the token-classifier head, got {config.head_kind}")
    ids = np.asarray(ids, dtype=np.int64)
    batch, seq = _batch_shape(config, ids)
    hidden = encode_batch(weights, config, ids, x=x, start=start)
    return reshape(_head(weights, hidden), (batch, seq))

