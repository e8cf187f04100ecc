"""Decoupled AdamW, the linear schedule, the three preference objectives,
the epoch loop, and seeded random hyperparameter search.

Training is deterministic given the config seed: one seed sequence is
spawned into independent streams for weight init, adapter init, per-pair
order draws, and batch shuffling, so repeated runs produce bitwise-equal
checkpoints and traces.
"""

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import Checkpoint, stored_tokenizer
from .data import (
    PREFIX_POOL,
    TOKEN_BUDGET,
    ClozeTemplate,
    build_tokenizer,
    group_by_length,
    plan_chunks,
    render_pairs,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    ShapeError,
)
from .evaluation import EvalModel, _score_rendered, aggregate_trials, eval_dataset
from .model import (
    HEAD_MLM,
    HEAD_POOLED,
    HEAD_TOKEN,
    ModelConfig,
    embed,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
    init_weights,
    run_layers,
)
from .peft import (
    AdapterTargets,
    FreezeSpec,
    adapted_forward_weights,
    adapter_tensors,
    apply_freeze,
    attach_adapters,
    merge_adapters,
    merge_checkpoint,
)
from .tensor import (
    Tape,
    Tensor,
    add,
    backward,
    bce_with_logits,
    cross_entropy_rows,
    gather_rows,
    mul,
    reshape,
    tsum,
)

OBJECTIVES = ("cloze", "pooled", "token-level")
_OBJECTIVE_HEADS = {
    "cloze": HEAD_MLM,
    "pooled": HEAD_POOLED,
    "token-level": HEAD_TOKEN,
}

ORDER_POLICIES = ("fixed", "shuffled")


@dataclass
class ModelSettings:
    """Encoder dimensions for a run; the head is picked by the objective."""

    n_layers: int = 2
    hidden: int = 64
    n_heads: int = 4
    ffn_mult: int = 4
    max_seq: int = 64
    pooling: str = "cls"


@dataclass
class DoraSettings:
    rank: int = 8
    targets: AdapterTargets = field(default_factory=AdapterTargets)

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError("dora rank must be at least 1")


@dataclass
class TrainConfig:
    """One run's settings. prefix and domain_prefixes (domain -> prefix)
    make its template; an all-at-once run over several domains is train()
    over their concatenated pairs with domain_prefixes set."""

    learning_rate: float
    weight_decay: float = 1e-5
    batch_size: int = 256
    epochs: int = 1
    seed: int = 0
    freeze: FreezeSpec = field(default_factory=FreezeSpec)
    dora: "DoraSettings | None" = None
    objective: str = "cloze"
    prefix: str = PREFIX_POOL[0]
    domain_prefixes: dict = field(default_factory=dict)
    order_policy: str = "shuffled"
    model: ModelSettings = field(default_factory=ModelSettings)
    clip_norm: "float | None" = None
    eval_every: int = 0

    def __post_init__(self):
        # Written so that NaN, which fails every comparison, is rejected too.
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and positive")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be finite and non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}; expected one of {OBJECTIVES}")
        if self.order_policy not in ORDER_POLICIES:
            raise ConfigError(f"unknown order_policy {self.order_policy!r}")
        self.template  # an empty prefix or a malformed map raises ConfigError
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ConfigError("clip_norm must be finite and positive when set")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be non-negative")

    @property
    def template(self) -> ClozeTemplate:
        return ClozeTemplate(self.prefix, self.domain_prefixes)


def model_config_for(settings: ModelSettings, objective: str, vocab_size: int) -> ModelConfig:
    head = _OBJECTIVE_HEADS[objective]
    return ModelConfig(
        n_layers=settings.n_layers,
        hidden=settings.hidden,
        n_heads=settings.n_heads,
        vocab_size=vocab_size,
        max_seq=settings.max_seq,
        ffn_mult=settings.ffn_mult,
        head_kind=head,
        pooling=settings.pooling if head == HEAD_POOLED else None,
    )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-6


@dataclass
class OptimizerState:
    """adamw_update's step count, first and second moments and two scratch
    arrays for one parameter array; the first update allocates the arrays."""

    t: int = 0
    m: "np.ndarray | None" = None
    v: "np.ndarray | None" = None
    scratch: tuple = ()


def adamw_update(p, g, state: OptimizerState, lr_t: float, weight_decay: float) -> None:
    """One bias-corrected Adam update of the parameter array p by the
    gradient g, followed by decoupled decay p *= (1 - lr_t * wd), all in
    place at p's dtype with β₁ = ADAM_BETA1, β₂ = ADAM_BETA2 and
    ε = ADAM_EPS. g must have p's shape and dtype.

    The update is elementwise, so one call on a concatenation of
    parameters gives the same bits as one call per parameter: train()
    makes one call per step on its flat parameter buffer. Its temporaries
    go to the two scratch arrays on `state`.

    A bias correction or decay factor that rounds to exactly 1.0 at p's
    dtype is skipped, since dividing or multiplying by it changes no bit:
    in float32 the bias corrections reach 1.0 after a few hundred steps,
    and 1 - lr_t * wd is 1.0 whenever lr_t * wd is at most 2**-25 (about
    3e-8).
    """
    if lr_t < 0:
        raise ContractError("lr_t must be non-negative")
    if g.shape != p.shape:
        raise ShapeError(f"gradient shape {g.shape} does not match parameter shape {p.shape}")
    if g.dtype != p.dtype:
        raise ContractError(f"gradient dtype {g.dtype} does not match parameter dtype {p.dtype}")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state.scratch = (np.empty_like(p), np.empty_like(p))
    m, v, (s, u) = state.m, state.v, state.scratch
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    decay = 1.0 - lr_t * weight_decay
    np.multiply(m, ADAM_BETA1, out=m)
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    m += s
    np.multiply(v, ADAM_BETA2, out=v)
    np.multiply(g, g, out=s)
    np.multiply(s, 1.0 - ADAM_BETA2, out=s)
    v += s
    # p -= lr_t * ((m / bc1) / (sqrt(v / bc2) + eps)), in that order.
    rounded = p.dtype.type
    m_hat = m if rounded(bc1) == 1.0 else np.divide(m, bc1, out=s)
    v_hat = v if rounded(bc2) == 1.0 else np.divide(v, bc2, out=u)
    np.sqrt(v_hat, out=u)
    np.add(u, ADAM_EPS, out=u)
    np.divide(m_hat, u, out=s)
    np.multiply(s, lr_t, out=s)
    p -= s
    if rounded(decay) != 1.0:
        p *= decay


def lr_linear(step: int, total_steps: int, lr_max: float) -> float:
    """Linear decay from lr_max at step 0 to zero at step == total_steps."""
    if total_steps < 1:
        raise ContractError("total_steps must be at least 1")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    return lr_max * (1.0 - step / total_steps)


def _check_batch(config: ModelConfig, head: str, objective: str, batch) -> None:
    if config.head_kind != head:
        raise ContractError(f"{objective} loss needs head {head!r}, got {config.head_kind!r}")
    if not batch:
        raise ContractError(f"{objective} loss needs a non-empty batch")


def _stacked(states, idxs):
    """The states of rows idxs stacked for one forward, or None."""
    return None if states is None else np.concatenate([states[i] for i in idxs])


def loss_cloze(weights, config: ModelConfig, rows, states=None, start=0) -> Tensor:
    """Mean full-vocabulary cross-entropy at each row's mask against its
    gold verbalizer, one forward per group of equal-length rows.

    states, in the three losses: each row's hidden states entering layer
    start, as frozen_states computes them; the forwards then run only
    layers start.. (see model.encode_batch)."""
    _check_batch(config, HEAD_MLM, "cloze", rows)
    total = None
    for idxs in group_by_length([r.token_ids for r in rows]).values():
        ids = np.array([rows[i].token_ids for i in idxs], dtype=np.int64)
        pos = np.array([rows[i].read for i in idxs], dtype=np.int64)
        golds = np.array([rows[i].target for i in idxs], dtype=np.int64)
        logits = forward_mlm_batch(weights, config, ids, pos, x=_stacked(states, idxs), start=start)
        group = tsum(cross_entropy_rows(logits, golds))
        total = group if total is None else add(total, group)
    return mul(total, 1.0 / len(rows))


def loss_pooled(weights, config: ModelConfig, rows, states=None, start=0) -> Tensor:
    """Mean two-way cross-entropy on the pooled representation; class 0
    means Option 1 is the better response."""
    _check_batch(config, HEAD_POOLED, "pooled", rows)
    total = None
    for idxs in group_by_length([r.token_ids for r in rows]).values():
        ids = np.array([rows[i].token_ids for i in idxs], dtype=np.int64)
        labels = np.array([rows[i].target for i in idxs], dtype=np.int64)
        logits = forward_pooled_batch(weights, config, ids, x=_stacked(states, idxs), start=start)
        group = tsum(cross_entropy_rows(logits, labels))
        total = group if total is None else add(total, group)
    return mul(total, 1.0 / len(rows))


def loss_token_level(weights, config: ModelConfig, rows, states=None, start=0) -> Tensor:
    """Mean over pairs of the binary cross-entropy averaged over both
    response spans, the rows being each pair's chosen row then its rejected
    row: each row's label on every token of its span. Scaffold tokens
    outside the spans carry no loss, and the weighting keeps each pair's
    share independent of its span lengths."""
    _check_batch(config, HEAD_TOKEN, "token-level", rows)
    if len(rows) % 2:
        raise ContractError("token-level loss needs each pair's two rows")
    widths = [end - start for start, end in (row.read for row in rows)]
    if min(widths) < 1:
        raise ContractError("empty response span")
    n = len(rows) // 2
    pair_weights = [1.0 / ((chosen + rejected) * n) for chosen, rejected in zip(widths[::2], widths[1::2])]
    total = None
    for length, idxs in group_by_length([r.token_ids for r in rows]).items():
        ids = np.array([rows[i].token_ids for i in idxs], dtype=np.int64)
        scores = forward_token_batch(weights, config, ids, x=_stacked(states, idxs), start=start)
        flat = reshape(scores, (len(idxs) * length, 1))
        gidx = []
        labels = []
        wvec = []
        for k, i in enumerate(idxs):
            lo, hi = rows[i].read
            gidx.extend(range(k * length + lo, k * length + hi))
            labels.extend([rows[i].target] * (hi - lo))
            wvec.extend([pair_weights[i // 2]] * (hi - lo))
        sel = gather_rows(flat, np.asarray(gidx, dtype=np.int64))
        bce = bce_with_logits(sel, np.asarray(labels, dtype=np.float32).reshape(-1, 1))
        group = tsum(mul(bce, np.asarray(wvec, dtype=np.float32).reshape(-1, 1)))
        total = group if total is None else add(total, group)
    return total


_LOSSES = {
    "cloze": loss_cloze,
    "pooled": loss_pooled,
    "token-level": loss_token_level,
}


def frozen_states(weights, config: ModelConfig, rows, k: int) -> list:
    """Each row's hidden states entering layer k, [seq, hidden]: embed and
    run_layers over layers 0..k-1, untaped, in the forwards that
    data.plan_chunks plans over the rows, each of one length and at most
    TOKEN_BUDGET tokens unless one row is longer. Each state is a view into
    its forward's output. Stacking rows changes no bit of a row's states
    (the tests check it against batch-1 forwards): every matmul here has a
    row per token, and only a one-row product, which a one-token row would
    make, takes another BLAS path."""
    states = [None] * len(rows)
    for idxs in plan_chunks([r.token_ids for r in rows]):
        ids = np.array([rows[i].token_ids for i in idxs], dtype=np.int64)
        seq = ids.shape[1]
        out = run_layers(weights, config, embed(weights, config, ids), seq, range(k)).data
        for j, i in enumerate(idxs):
            states[i] = out[j * seq : (j + 1) * seq]
    return states


def _step_runs(batches):
    """Runs of consecutive batches of rows, each as many batches as fit
    TOKEN_BUDGET tokens and at least one."""
    run, tokens = [], 0
    for batch in batches:
        n = sum(len(row.token_ids) for row in batch)
        if run and tokens + n > TOKEN_BUDGET:
            yield run
            run, tokens = [], 0
        run.append(batch)
        tokens += n
    if run:
        yield run


def _with_frozen_states(weights, config: ModelConfig, batches, k: int):
    """Each batch of rows with its rows' frozen_states, or None when k is 0.
    The states are computed before each of the _step_runs of the batches,
    so the frozen layers see each row once and only one run's states are
    held at a time."""
    if not k:
        for batch in batches:
            yield batch, None
        return
    for run in _step_runs(batches):
        states = frozen_states(weights, config, [row for batch in run for row in batch], k)
        lo = 0
        for batch in run:
            yield batch, states[lo : lo + len(batch)]
            lo += len(batch)


def plan_epoch(n_instances: int, batch_size: int, rng) -> list:
    """Shuffled batch index arrays for one epoch."""
    order = rng.permutation(n_instances)
    return [order[lo : lo + batch_size] for lo in range(0, n_instances, batch_size)]


@dataclass
class TraceRow:
    step: int
    lr: float
    loss: float
    heldout_acc: "float | None" = None


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    trace: list
    skipped: list


def trace_to_csv(trace) -> str:
    lines = ["step,lr,loss,heldout_acc"]
    for row in trace:
        acc = "" if row.heldout_acc is None else repr(row.heldout_acc)
        lines.append(f"{row.step},{row.lr!r},{row.loss!r},{acc}")
    return "\n".join(lines) + "\n"


def _flatten_parameters(tensors):
    """Copy the tensors into one float32 parameter buffer and give each a
    zeroed gradient; afterwards every tensor's .data and .grad are views
    into the two returned flat buffers, in the given order."""
    tensors = list(tensors)
    flat_p = np.empty(sum(t.data.size for t in tensors), dtype=np.float32)
    flat_g = np.zeros_like(flat_p)
    offset = 0
    for t in tensors:
        end = offset + t.data.size
        view = flat_p[offset:end].reshape(t.data.shape)
        view[...] = t.data
        t.data = view
        t.grad = flat_g[offset:end].reshape(view.shape)
        offset = end
    return flat_p, flat_g


def _clip_global_norm(grads, max_norm: float) -> float:
    total = 0.0
    for g in grads:
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = np.float32(max_norm / norm)
        for g in grads:
            g *= scale
    return norm


def train(config: TrainConfig, pairs, heldout=None, init_from=None) -> TrainResult:
    """Train one model over the pair list; deterministic given config.seed.

    heldout: optional pair list scored at eval_every steps, which need it,
    and at the final step (accuracy lands in the trace), as eval_dataset
    scores the merged weights. It is rendered once with the training pairs,
    before the first step, and one that max_seq skips entirely raises
    ConfigError. Parameters left non-finite by the last update raise
    DivergenceError. init_from: checkpoint to continue from (any adapters
    in it are merged first); its stored vocabulary is reused, so new text
    falls back to UNK. Training and held-out pairs are rendered with
    config.template, which the checkpoint records as its template block.

    With the embeddings and layers 0..k-1 frozen (k >= 1), the steps run
    only layers from min(k, n_layers - 1) up, from the frozen_states of
    their rows: before each run of consecutive steps that fits
    TOKEN_BUDGET tokens, the frozen layers run untaped over that run's
    rows, so they see each trained row once per epoch. Stacking the rows
    changes no bit of the run (see frozen_states).
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("training dataset is empty")
    if heldout is not None:
        heldout = list(heldout)
        if not heldout:
            raise ConfigError("held-out dataset is empty")
    elif config.eval_every > 0:
        raise ConfigError("eval_every needs a held-out set to score")
    head = _OBJECTIVE_HEADS[config.objective]
    settings = config.model

    ss = np.random.SeedSequence(config.seed)
    init_ss, dora_ss, order_ss, shuffle_ss = ss.spawn(4)

    template = config.template
    if init_from is not None:
        base_ckpt = merge_checkpoint(init_from)
        tokenizer = stored_tokenizer(base_ckpt)
        model_config = base_ckpt.config
        want = model_config_for(settings, config.objective, model_config.vocab_size)
        if model_config != want:
            raise ConfigError(f"init checkpoint model {model_config} does not match configured model {want}")
        weights_np = {name: arr.copy() for name, arr in base_ckpt.tensors.items()}
    else:
        tokenizer = build_tokenizer(pairs)
        model_config = model_config_for(settings, config.objective, len(tokenizer))
        weights_np = init_weights(model_config, seed=init_ss)

    adapters = {}
    if config.dora is not None:
        adapters = attach_adapters(
            weights_np, config.dora.rank, config.dora.targets, config.freeze, rng=dora_ss
        )

    # The optimizer manifest: non-frozen base tensors (minus adapted ones,
    # whose updates flow through their adapters) plus adapter tensors.
    trainable = [n for n in apply_freeze(weights_np, config.freeze) if n not in adapters]
    trainset = set(trainable)
    wt = {name: Tensor(arr, requires_grad=name in trainset) for name, arr in weights_np.items()}
    params = [wt[name] for name in trainable]
    for adapter in adapters.values():
        params += (adapter.A, adapter.B, adapter.m)
    if not params:
        raise ConfigError("nothing to train: every parameter is frozen")
    flat_p, flat_g = _flatten_parameters(params)
    del weights_np  # its trainable arrays were copied into flat_p

    state = OptimizerState()
    order_rng = np.random.default_rng(order_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    batch_loss = _LOSSES[config.objective]

    skips = []
    rendered = render_pairs(pairs, template, tokenizer, model_config.max_seq, head, skips)
    skipped = [f"{exc.record_id}: {exc.reason}" for exc in skips]
    n_instances = len(pairs) - len(skipped)
    if not n_instances:
        raise DataError("every training record was skipped", skipped)
    if heldout is not None:
        heldout_rows = render_pairs(heldout, template, tokenizer, model_config.max_seq, head, [])
        if not any(heldout_rows):
            raise ConfigError("every held-out pair was skipped")
    total_steps = math.ceil(n_instances / config.batch_size) * config.epochs
    # With the embeddings and layers 0..k-1 frozen, and so free of adapters,
    # the states entering layer k depend on the token ids alone, and the
    # steps start there from frozen_states. The last layer always runs in
    # the step: at the query rows (mask or cls) a step of one sequence
    # multiplies one row, which rounds unlike a row of a stacked call.
    start = 0
    if config.freeze.embeddings_frozen:
        start = min(config.freeze.n_frozen_layers, model_config.n_layers - 1)
    draw = config.order_policy == "shuffled" and config.objective != "token-level"

    trace = []
    step = 0
    for _ in range(config.epochs):
        # One order_rng draw per pair under 'shuffled' (below 0.5: original),
        # skipped pairs included, so which pairs fit moves no other draw.
        # Cloze and pooled train on the drawn order, token-level on both rows.
        picks = [1 if draw and order_rng.random() >= 0.5 else 0 for _ in rendered]
        instances = [rows if head == HEAD_TOKEN else rows[pick : pick + 1]
                     for rows, pick in zip(rendered, picks) if rows is not None]
        batches = ([row for i in batch_idx for row in instances[i]]
                   for batch_idx in plan_epoch(n_instances, config.batch_size, shuffle_rng))
        for batch, states in _with_frozen_states(wt, model_config, batches, start):
            lr_t = lr_linear(step, total_steps, config.learning_rate)
            with Tape() as tape:
                eff = adapted_forward_weights(wt, adapters) if adapters else wt
                loss = batch_loss(eff, model_config, batch, states, start)
            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise DivergenceError(f"training loss became non-finite at step {step}")
            backward(tape, loss)
            if config.clip_norm is not None:
                _clip_global_norm([t.grad for t in params], config.clip_norm)
            adamw_update(flat_p, flat_g, state, lr_t, config.weight_decay)
            flat_g.fill(0)
            acc = None
            is_last = step + 1 == total_steps
            if heldout is not None and (
                is_last or (config.eval_every > 0 and (step + 1) % config.eval_every == 0)
            ):
                model = EvalModel(model_config, merge_adapters(wt, adapters), tokenizer, template)
                acc = aggregate_trials(_score_rendered(model, heldout, heldout_rows)).total_accuracy
            trace.append(TraceRow(step=step, lr=lr_t, loss=loss_value, heldout_acc=acc))
            step += 1
    if not np.isfinite(flat_p).all():
        raise DivergenceError(f"training parameters became non-finite at step {step - 1}")

    tensors = {name: t.data.copy() for name, t in wt.items()}
    for name, arr in adapter_tensors(adapters).items():
        tensors[name] = arr.copy()
    extra = {
        "vocab": list(tokenizer.tokens),
        "template": template.to_block(),
        "objective": config.objective,
        "train": {
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "seed": config.seed,
            "order_policy": config.order_policy,
            "n_pairs": len(pairs),
            "n_skipped": len(skipped),
            "total_steps": total_steps,
            "n_frozen_layers": config.freeze.n_frozen_layers,
        },
    }
    if adapters:
        extra["dora"] = {"rank": config.dora.rank, "targets": list(config.dora.targets.roles)}
    ckpt = Checkpoint(config=model_config, tensors=tensors, extra=extra)
    return TrainResult(checkpoint=ckpt, trace=trace, skipped=skipped)


@dataclass
class SweepSpec:
    """Seeded random search over the four tuned knobs."""

    base: TrainConfig
    trials: int = 8
    seed: int = 0
    lr_min: float = 1e-4
    lr_max: float = 1e-2
    ranks: tuple = (0, 4, 8)  # 0 means no adapters
    frozen_min: int = 0
    frozen_max: int = 0
    prefixes: tuple = PREFIX_POOL
    heldout_fraction: float = 0.2

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if not 0 < self.lr_min <= self.lr_max < math.inf:
            raise ConfigError("need 0 < lr_min <= lr_max < inf")
        if not self.ranks or any(r < 0 for r in self.ranks):
            raise ConfigError("ranks must be a non-empty set of non-negative ints")
        if not 0 <= self.frozen_min <= self.frozen_max:
            raise ConfigError("need 0 <= frozen_min <= frozen_max")
        if not self.prefixes:
            raise ConfigError("prefix pool must be non-empty")
        if self.base.domain_prefixes:
            # Every trial keeps the base's map, which would shadow its drawn
            # prefix on each mapped domain.
            raise ConfigError("a sweep's base config must have no domain prefix map")
        if not 0 < self.heldout_fraction < 1:
            raise ConfigError("heldout_fraction must be in (0, 1)")


@dataclass
class TrialDraw:
    learning_rate: float
    dora_rank: int
    frozen_layers: int
    prefix: str


@dataclass
class TrialResult:
    index: int
    learning_rate: float
    dora_rank: int
    frozen_layers: int
    prefix: str
    accuracy: float
    gflops_per_token: float
    n_train: int
    n_eval: int


def sample_trial_configs(spec: SweepSpec) -> list:
    """The deterministic trial draws: log-uniform lr, choice of rank and
    prefix, uniform integer frozen-layer count."""
    rng = np.random.default_rng(spec.seed)
    draws = []
    for _ in range(spec.trials):
        lr = float(np.exp(rng.uniform(np.log(spec.lr_min), np.log(spec.lr_max))))
        rank = int(spec.ranks[rng.integers(len(spec.ranks))])
        frozen = int(rng.integers(spec.frozen_min, spec.frozen_max + 1))
        prefix = str(spec.prefixes[rng.integers(len(spec.prefixes))])
        draws.append(TrialDraw(lr, rank, frozen, prefix))
    return draws


def trial_config(spec: SweepSpec, draw: TrialDraw) -> TrainConfig:
    """The base config with the draw's learning rate, prefix, frozen layers
    and rank; a trial keeps the base's embedding freeze and, with adapters,
    its adapter targets."""
    dora = None
    if draw.dora_rank > 0:
        dora = replace(spec.base.dora or DoraSettings(), rank=draw.dora_rank)
    return replace(
        spec.base,
        learning_rate=draw.learning_rate,
        prefix=draw.prefix,
        freeze=replace(spec.base.freeze, n_frozen_layers=draw.frozen_layers),
        dora=dora,
    )


def heldout_split(pairs, seed: int, stream: int, fraction: float):
    """(train, heldout) lists drawn by a permutation seeded from
    SeedSequence([seed, stream]); round(fraction * n) pairs, clamped to
    [1, n - 1], are held out. Callers validate n and fraction."""
    perm = np.random.default_rng(np.random.SeedSequence([seed, stream])).permutation(len(pairs))
    n_held = min(max(1, int(round(fraction * len(pairs)))), len(pairs) - 1)
    return [pairs[i] for i in perm[n_held:]], [pairs[i] for i in perm[:n_held]]


def sweep(spec: SweepSpec, pairs) -> list:
    """Train and evaluate each sampled trial on a seeded held-out split;
    rows sorted by accuracy desc, then GFLOPs/token asc, then trial index.
    Every draw is checked against the base's layer count and width before
    the first trial trains.

    The split stream is separate from the draw stream so adding trials
    never changes the split.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ConfigError("sweep needs at least 2 pairs to split")
    draws = sample_trial_configs(spec)
    configs = [trial_config(spec, draw) for draw in draws]
    hidden = spec.base.model.hidden
    for cfg in configs:
        cfg.freeze.check(spec.base.model.n_layers, adapters=cfg.dora is not None)
        # Every adaptable matrix is hidden wide on its narrow side.
        if cfg.dora is not None and cfg.dora.rank > hidden:
            raise ConfigError(f"rank {cfg.dora.rank} out of range for a hidden-{hidden} model")
    train_pairs, eval_pairs = heldout_split(pairs, spec.seed, 1, spec.heldout_fraction)

    results = []
    for index, (draw, cfg) in enumerate(zip(draws, configs)):
        run = train(cfg, train_pairs)
        report = eval_dataset(EvalModel.from_checkpoint(run.checkpoint), eval_pairs)
        results.append(
            TrialResult(
                index=index,
                learning_rate=draw.learning_rate,
                dora_rank=draw.dora_rank,
                frozen_layers=draw.frozen_layers,
                prefix=draw.prefix,
                accuracy=report.total_accuracy,
                gflops_per_token=report.gflops_per_token,
                n_train=len(train_pairs),
                n_eval=len(eval_pairs),
            )
        )
    results.sort(key=lambda r: (-r.accuracy, r.gflops_per_token, r.index))
    return results


def trials_to_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["trial", "learning_rate", "dora_rank", "frozen_layers", "prefix",
         "accuracy", "gflops_per_token", "n_train", "n_eval"]
    )
    for r in results:
        writer.writerow(
            [r.index, repr(r.learning_rate), r.dora_rank, r.frozen_layers, r.prefix,
             repr(r.accuracy), repr(r.gflops_per_token), r.n_train, r.n_eval]
        )
    return buf.getvalue()
