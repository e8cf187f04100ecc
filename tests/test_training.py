"""Optimizer, schedule, losses, the training loop, sweeps, and all-at-once runs."""

import dataclasses
import math

import numpy as np
import pytest

import clozerm.data
import clozerm.model
import clozerm.training
from clozerm.checkpoint import Checkpoint
from clozerm.data import (
    CANONICAL_LAYOUT,
    DOMAIN_PREFIXES,
    ClozeTemplate,
    PreferencePair,
    build_tokenizer,
    render_pair,
    synth_generate,
)
from clozerm.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    ShapeError,
    SkipRecord,
)
from clozerm.evaluation import EvalModel, eval_dataset, score_pairs
from clozerm.model import (
    HEAD_MLM,
    HEAD_POOLED,
    HEAD_TOKEN,
    embed,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
    init_weights,
    run_layers,
)
from clozerm.peft import AdapterTargets, adapted_forward_weights, apply_freeze, attach_adapters
from clozerm.tensor import Tape, Tensor
from clozerm.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DoraSettings,
    FreezeSpec,
    ModelSettings,
    OptimizerState,
    SweepSpec,
    TrainConfig,
    TraceRow,
    _clip_global_norm,
    _flatten_parameters,
    adamw_update,
    frozen_states,
    loss_cloze,
    loss_pooled,
    loss_token_level,
    lr_linear,
    model_config_for,
    plan_epoch,
    sample_trial_configs,
    sweep,
    trace_to_csv,
    train,
    train_aao,
    trial_config,
    trials_to_csv,
)

SMALL = ModelSettings(n_layers=1, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)
PAIRS = synth_generate("arithmetic", 16, seed=3)


def small_config(**kw):
    base = dict(learning_rate=1e-3, batch_size=8, seed=7, model=SMALL, prefix="Solve:")
    base.update(kw)
    return TrainConfig(**base)


def tensors_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# adamw_update


def test_adamw_zero_grad_no_decay_is_identity():
    p = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)
    before = p.copy()
    state = OptimizerState()
    adamw_update(p, np.zeros_like(p), state, lr_t=0.5, weight_decay=0.0)
    assert np.array_equal(p, before)
    assert state.t == 1


def test_adamw_zero_grad_single_decay_step_exact():
    # With no gradient signal the update is pure decoupled decay:
    # p *= (1 - lr*wd), computed at the parameter's own float32 precision.
    p = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
    expected = p * np.float32(1.0 - 0.1 * 0.01)
    adamw_update(p, np.zeros_like(p), OptimizerState(), lr_t=0.1, weight_decay=0.01)
    assert np.array_equal(p, expected)


def test_adamw_decay_law_100_steps():
    # 100 zero-gradient steps must track the closed form p*(1-lr*wd)^100.
    p = np.random.default_rng(1).normal(size=(64,)).astype(np.float32)
    start = p.astype(np.float64)
    state = OptimizerState()
    for _ in range(100):
        adamw_update(p, np.zeros_like(p), state, lr_t=0.1, weight_decay=0.01)
    law = start * (1.0 - 0.1 * 0.01) ** 100
    rel = np.max(np.abs(p.astype(np.float64) - law) / np.abs(law))
    assert rel < 1e-5
    assert state.t == 100


def test_adamw_single_step_hand_oracle():
    # One step at t=1 with g=1: bias correction gives m_hat = v_hat = 1,
    # so the update is exactly -lr / (1 + eps).
    p = np.array([0.0], dtype=np.float64)
    g = np.array([1.0], dtype=np.float64)
    adamw_update(p, g, OptimizerState(), lr_t=0.1, weight_decay=0.0)
    expected = -0.1 / (1.0 + 1e-6)
    assert abs(p[0] - expected) < 1e-7


def test_adamw_multi_step_matches_python_reference():
    beta1, beta2, eps = 0.9, 0.98, 1e-6
    grads = [1.0, -0.5, 0.25]
    lrs = [0.1, 0.05, 0.025]
    wd = 0.01
    ref, m, v = 0.3, 0.0, 0.0
    for t, (g, lr) in enumerate(zip(grads, lrs), start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
        ref *= 1 - lr * wd

    p = np.array([0.3], dtype=np.float64)
    state = OptimizerState()
    for g, lr in zip(grads, lrs):
        adamw_update(p, np.array([g]), state, lr_t=lr, weight_decay=wd)
    assert abs(p[0] - ref) < 1e-12


def test_adamw_skipped_identity_passes_keep_the_bits():
    # Past the step where float32 bias corrections round to 1.0, and at a
    # decay factor that rounds to 1.0, the skipped passes must change no
    # bit against always dividing and always decaying.
    rng = np.random.default_rng(5)
    beta1, beta2, eps = 0.9, 0.98, 1e-6
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (beta1, beta2, eps)
    p = rng.normal(size=(64,)).astype(np.float32)
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    state = OptimizerState()
    for t in range(1, 1001):
        g = rng.normal(size=p.shape).astype(np.float32)
        lr, wd = 1.75e-3 * (1.0 - t / 1000), (1e-5 if t % 2 else 0.5)
        m = m * beta1 + g * (1.0 - beta1)
        v = v * beta2 + (g * g) * (1.0 - beta2)
        ref -= (m / (1.0 - beta1 ** t)) / (np.sqrt(v / (1.0 - beta2 ** t)) + eps) * lr
        ref *= 1.0 - lr * wd
        adamw_update(p, g, state, lr_t=lr, weight_decay=wd)
        assert np.array_equal(p, ref), t
    assert np.float32(1.0 - beta2 ** 1000) == 1.0 and np.float32(1.0 - 1.75e-3 * 1e-5) == 1.0


def test_adamw_moments_persist_across_calls():
    p = np.array([1.0], dtype=np.float64)
    state = OptimizerState()
    adamw_update(p, np.array([1.0]), state, lr_t=0.0, weight_decay=0.0)
    assert state.m[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.02)
    adamw_update(p, np.array([1.0]), state, lr_t=0.0, weight_decay=0.0)
    assert state.m[0] == pytest.approx(0.9 * 0.1 + 0.1)
    assert state.t == 2


@pytest.mark.parametrize("grad,error,message", [
    (np.zeros((3, 2), dtype=np.float32), ShapeError, r"gradient shape \(3, 2\) does not match parameter shape \(2, 3\)"),
    (np.zeros((2, 3), dtype=np.float64), ContractError, "gradient dtype float64 does not match parameter dtype float32"),
], ids=["shape", "dtype"])
def test_adamw_gradient_must_match_parameter(grad, error, message):
    # A mismatched gradient raises before any state or parameter changes.
    p = np.ones((2, 3), dtype=np.float32)
    state = OptimizerState()
    with pytest.raises(error, match=message):
        adamw_update(p, grad, state, 0.1, 0.0)
    assert state.t == 0 and state.m is None
    assert np.array_equal(p, np.ones((2, 3), dtype=np.float32))


def test_adamw_negative_lr_rejected():
    p = np.zeros(3, dtype=np.float32)
    with pytest.raises(ContractError):
        adamw_update(p, np.zeros_like(p), OptimizerState(), lr_t=-0.1, weight_decay=0.0)


def test_adamw_on_concatenation_equals_per_tensor_bitwise():
    # train() updates one flat buffer holding every parameter; that must
    # give the same bits as one update per tensor, each with its own state.
    # "b" gets a zero gradient.
    rng = np.random.default_rng(4)
    shapes = {"a": (33, 17), "b": (64,), "c": (5, 9, 3)}
    params = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
    flat = np.concatenate([p.ravel() for p in params.values()])
    per_tensor = {n: OptimizerState() for n in params}
    whole = OptimizerState()
    for step in range(4):
        grads = {n: rng.normal(size=shapes[n]).astype(np.float32) for n in ("a", "c")}
        grads["b"] = np.zeros(shapes["b"], np.float32)
        flat_grad = np.concatenate([grads[n].ravel() for n in params])
        lr_t = lr_linear(step, 4, 0.01)
        for n, p in params.items():
            adamw_update(p, grads[n], per_tensor[n], lr_t, weight_decay=0.1)
        adamw_update(flat, flat_grad, whole, lr_t, weight_decay=0.1)
        assert np.array_equal(flat, np.concatenate([p.ravel() for p in params.values()]))
        for moments in ("m", "v"):
            split = np.concatenate([getattr(s, moments).ravel() for s in per_tensor.values()])
            assert np.array_equal(getattr(whole, moments), split)


# ---------------------------------------------------------------------------
# flat parameter buffer and clipping


def test_flatten_parameters_makes_views_of_two_buffers():
    rng = np.random.default_rng(5)
    originals = [rng.normal(size=s).astype(np.float32) for s in ((3, 4), (5,), (2, 3))]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in originals]
    flat_p, flat_g = _flatten_parameters(tensors)
    assert flat_p.size == flat_g.size == 12 + 5 + 6
    assert np.array_equal(flat_p, np.concatenate([a.ravel() for a in originals]))
    assert not flat_g.any()
    for t, a in zip(tensors, originals):
        assert np.array_equal(t.data, a) and t.data.flags.c_contiguous
        assert np.shares_memory(t.data, flat_p) and np.shares_memory(t.grad, flat_g)
    tensors[1].grad += 2.0
    assert np.array_equal(flat_g[12:17], np.full(5, 2.0, np.float32))


def test_clip_global_norm_scales_flat_buffer_through_views():
    rng = np.random.default_rng(6)
    tensors = [Tensor(np.zeros(s, np.float32), requires_grad=True) for s in ((4, 3), (7,), (2, 5))]
    _, flat_g = _flatten_parameters(tensors)
    flat_g[:] = rng.normal(size=flat_g.size)
    before = math.sqrt(float(np.sum(flat_g.astype(np.float64) ** 2)))
    assert before > 1.0
    norm = _clip_global_norm([t.grad for t in tensors], 1.0)
    assert norm == pytest.approx(before, rel=1e-12)
    assert float(np.linalg.norm(flat_g.astype(np.float64))) == pytest.approx(1.0, rel=1e-6)
    kept = flat_g.copy()
    assert _clip_global_norm([t.grad for t in tensors], 2.0) == pytest.approx(1.0, rel=1e-6)
    assert np.array_equal(flat_g, kept)


# ---------------------------------------------------------------------------
# lr_linear


def test_lr_linear_endpoints_and_midpoint():
    assert lr_linear(0, 10, 0.5) == 0.5
    assert lr_linear(10, 10, 0.5) == 0.0
    assert lr_linear(5, 10, 0.5) == 0.25


def test_lr_linear_bounds():
    with pytest.raises(ContractError):
        lr_linear(-1, 10, 0.5)
    with pytest.raises(ContractError):
        lr_linear(11, 10, 0.5)
    with pytest.raises(ContractError):
        lr_linear(0, 0, 0.5)


# ---------------------------------------------------------------------------
# loss functions


def build_model(objective, pairs, seed=0, settings=SMALL, zero=False):
    tokenizer = build_tokenizer(pairs)
    config = model_config_for(settings, objective, len(tokenizer))
    weights = init_weights(config, seed=seed)
    if zero:
        for name in weights:
            weights[name][:] = 0
    tensors = {name: Tensor(arr) for name, arr in weights.items()}
    return tensors, config, tokenizer


def ce_oracle(logits64, gold):
    m = float(np.max(logits64))
    return m + math.log(float(np.sum(np.exp(logits64 - m)))) - float(logits64[gold])


def bce_oracle(score64, label):
    # log(1 + exp(-z)) for label 1, log(1 + exp(z)) for label 0, stably.
    z = score64 if label == 1 else -score64
    return math.log1p(math.exp(-abs(z))) + max(-z, 0.0)


TEMPLATE = ClozeTemplate(prefix="Which response is more correct?")


def test_loss_cloze_uniform_logits_equals_log_vocab():
    wt, config, tok = build_model("cloze", PAIRS, zero=True)
    row = render_pair(PAIRS[0], TEMPLATE, tok, SMALL.max_seq, HEAD_MLM)[0]
    loss = float(loss_cloze(wt, config, [row]).data)
    assert loss == pytest.approx(math.log(config.vocab_size), abs=1e-4)


def test_loss_cloze_gold_logit_saturated():
    wt, config, tok = build_model("cloze", PAIRS, zero=True)
    row = render_pair(PAIRS[0], TEMPLATE, tok, SMALL.max_seq, HEAD_MLM)[0]
    wt["head.b"].data[row.target] = 100.0
    assert float(loss_cloze(wt, config, [row]).data) < 1e-5


def test_loss_cloze_matches_f64_cross_entropy_of_logits():
    wt, config, tok = build_model("cloze", PAIRS, seed=5)
    for row in render_pair(PAIRS[1], TEMPLATE, tok, SMALL.max_seq, HEAD_MLM):
        logits = forward_mlm_batch(wt, config, [row.token_ids], [row.read]).data[0]
        oracle = ce_oracle(logits.astype(np.float64), row.target)
        assert float(loss_cloze(wt, config, [row]).data) == pytest.approx(oracle, abs=1e-6)


def test_loss_cloze_deterministic_bitwise():
    wt, config, tok = build_model("cloze", PAIRS, seed=9)
    row = render_pair(PAIRS[2], TEMPLATE, tok, SMALL.max_seq, HEAD_MLM)[0]
    a = float(loss_cloze(wt, config, [row]).data)
    b = float(loss_cloze(wt, config, [row]).data)
    assert a == b


def test_batch1_cloze_step_at_readme_shape_records_17_tape_ops():
    # Per layer: layer_norm, residual_attention, layer_norm, residual_ffn;
    # the last layer's attention computes only the mask row. Around them:
    # two embedding gathers and their add, the final layer norm, the head
    # matmul and bias add, and the loss's cross entropy, sum and scale.
    settings = ModelSettings(n_layers=2, hidden=64, n_heads=8, max_seq=64)
    wt, config, tok = build_model("cloze", PAIRS, settings=settings)
    for tensor in wt.values():
        tensor.requires_grad = True
    row = render_pair(PAIRS[0], TEMPLATE, tok, settings.max_seq, HEAD_MLM)[0]
    with Tape() as tape:
        loss = loss_cloze(wt, config, [row])
    assert len(tape) == 17
    tape.backward(loss)
    assert all(tensor.grad is not None for tensor in wt.values())


def test_dora_step_at_readme_shape_records_16_tape_ops(monkeypatch):
    # With layer 0 and the embeddings frozen, the step starts from the
    # states entering layer 1, and calls layer 1's block ops alone. Layer
    # 1's four block ops and the six of the final layer norm, head and loss
    # are recorded, plus one dora_weight op per adapted matrix of layer 1.
    settings = ModelSettings(n_layers=2, hidden=64, n_heads=8, max_seq=64)
    wt, config, tok = build_model("cloze", PAIRS, settings=settings)
    weights = {name: tensor.data for name, tensor in wt.items()}
    freeze = FreezeSpec(n_frozen_layers=1)
    adapters = attach_adapters(weights, 8, AdapterTargets(), freeze, rng=0)
    for name in apply_freeze(weights, freeze):
        wt[name].requires_grad = name not in adapters
    row = render_pair(PAIRS[0], TEMPLATE, tok, settings.max_seq, HEAD_MLM)[0]
    states = frozen_states(wt, config, [row], 1)
    calls = []
    for name in ("residual_attention", "residual_ffn"):
        op = getattr(clozerm.model, name)
        monkeypatch.setattr(clozerm.model, name,
                            lambda *a, _op=op, _name=name, **kw: calls.append(_name) or _op(*a, **kw))
    with Tape() as tape:
        loss = loss_cloze(adapted_forward_weights(wt, adapters), config, [row], states, 1)
    assert len(adapters) == 6 and len(tape) == 16
    assert calls == ["residual_attention", "residual_ffn"]
    tape.backward(loss)
    assert all(t.grad is not None for ad in adapters.values() for t in (ad.A, ad.B, ad.m))


def test_loss_cloze_rejects_wrong_head():
    wt, config, tok = build_model("pooled", PAIRS)
    row = render_pair(PAIRS[0], TEMPLATE, tok, SMALL.max_seq, HEAD_POOLED)[0]
    with pytest.raises(ContractError):
        loss_cloze(wt, config, [row])


def test_loss_pooled_equal_logits_equals_log2():
    wt, config, tok = build_model("pooled", PAIRS, zero=True)
    row = render_pair(PAIRS[0], TEMPLATE, tok, SMALL.max_seq, HEAD_POOLED)[0]
    assert float(loss_pooled(wt, config, [row]).data) == pytest.approx(math.log(2.0), abs=1e-6)


def test_loss_pooled_matches_f64_oracle_both_orders():
    wt, config, tok = build_model("pooled", PAIRS, seed=4)
    for row in render_pair(PAIRS[3], TEMPLATE, tok, SMALL.max_seq, HEAD_POOLED):
        logits = forward_pooled_batch(wt, config, [row.token_ids]).data[0]
        oracle = ce_oracle(logits.astype(np.float64), row.target)
        assert float(loss_pooled(wt, config, [row]).data) == pytest.approx(oracle, abs=1e-6)


def test_loss_pooled_rejects_wrong_head():
    wt, config, tok = build_model("cloze", PAIRS)
    row = render_pair(PAIRS[0], TEMPLATE, tok, SMALL.max_seq, HEAD_MLM)[0]
    with pytest.raises(ContractError):
        loss_pooled(wt, config, [row])


TOKEN_PAIR = PreferencePair(
    id="t", prompt="q", chosen="yes yes", rejected="no no", domain="chat"
)


def token_rows(tok, max_seq=32):
    return render_pair(TOKEN_PAIR, ClozeTemplate(prefix="Select the best response."), tok, max_seq, HEAD_TOKEN)


def test_loss_token_level_zero_scores_equals_log2():
    wt, config, tok = build_model("token-level", [TOKEN_PAIR], zero=True)
    rows = token_rows(tok, SMALL.max_seq)
    loss = loss_token_level(wt, config, rows)
    assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-6)


def test_loss_token_level_saturated_scores_vanish():
    # A 0-layer model whose token score is a dot product with the token
    # embedding: +100 on chosen-body tokens, -100 on rejected-body tokens.
    tok = build_tokenizer([TOKEN_PAIR])
    settings = ModelSettings(n_layers=0, hidden=4, n_heads=1, ffn_mult=2, max_seq=32)
    config = model_config_for(settings, "token-level", len(tok))
    weights = init_weights(config, seed=0)
    for name in weights:
        weights[name][:] = 0
    weights["final_ln.gain"][:] = 1
    chosen, rejected = token_rows(tok)
    pattern = np.array([1.0, -1.0, 1.0, -1.0], dtype=np.float32)
    weights["tok_emb"][chosen.token_ids[chosen.read[0]]] = pattern
    weights["tok_emb"][rejected.token_ids[rejected.read[0]]] = -pattern
    weights["head.w"][:, 0] = 25 * pattern
    wt = {name: Tensor(arr) for name, arr in weights.items()}
    loss = loss_token_level(wt, config, [chosen, rejected])
    assert float(loss.data) < 1e-5


def test_loss_token_level_matches_per_token_oracle():
    wt, config, tok = build_model("token-level", [TOKEN_PAIR], seed=6)
    rows = token_rows(tok, SMALL.max_seq)
    loss = loss_token_level(wt, config, rows)

    terms = []
    for row in rows:
        start, end = row.read
        scores = forward_token_batch(wt, config, [row.token_ids]).data[0].astype(np.float64)
        terms.extend(bce_oracle(float(scores[p]), row.target) for p in range(start, end))
    assert float(loss.data) == pytest.approx(sum(terms) / len(terms), abs=1e-6)


def test_loss_token_level_empty_span_rejected():
    wt, config, tok = build_model("token-level", [TOKEN_PAIR])
    chosen, rejected = token_rows(tok, SMALL.max_seq)
    with pytest.raises(ContractError, match="empty response span"):
        loss_token_level(wt, config, [dataclasses.replace(chosen, read=(3, 3)), rejected])


def test_loss_token_level_rejects_a_row_without_its_pair():
    wt, config, tok = build_model("token-level", [TOKEN_PAIR])
    with pytest.raises(ContractError, match="two rows"):
        loss_token_level(wt, config, token_rows(tok, SMALL.max_seq)[:1])


def test_loss_token_level_rejects_wrong_head():
    wt, config, tok = build_model("cloze", [TOKEN_PAIR])
    with pytest.raises(ContractError):
        loss_token_level(wt, config, token_rows(tok, SMALL.max_seq))


MIXED = (
    synth_generate("arithmetic", 3, seed=3)
    + synth_generate("refusal", 3, seed=3)
    + synth_generate("verbosity", 3, seed=3)
)


def mixed_units(config, tok):
    """MIXED as the units training draws: one row per order (mlm, pooled)
    or a pair's two rows (token head)."""
    rendered = [render_pair(p, TEMPLATE, tok, SMALL.max_seq, config.head_kind) for p in MIXED]
    lengths = [len(row.token_ids) for rows in rendered for row in rows]
    # several length groups, at least one of them holding more than one row
    assert 2 < len(set(lengths)) < len(lengths)
    if config.head_kind == HEAD_TOKEN:
        return rendered
    return [[row] for rows in rendered for row in rows]


EVERY_LOSS = pytest.mark.parametrize(
    "objective,loss_fn",
    [("cloze", loss_cloze), ("pooled", loss_pooled), ("token-level", loss_token_level)],
    ids=["cloze", "pooled", "token-level"],
)


@EVERY_LOSS
def test_grouped_loss_equals_mean_of_batch_of_one_losses(objective, loss_fn):
    wt, config, tok = build_model(objective, MIXED, seed=8)
    units = mixed_units(config, tok)
    singles = [float(loss_fn(wt, config, unit).data) for unit in units]
    batch = [row for unit in units for row in unit]
    assert float(loss_fn(wt, config, batch).data) == pytest.approx(sum(singles) / len(singles), abs=1e-6)


@EVERY_LOSS
def test_loss_rejects_empty_batch_before_any_forward(objective, loss_fn):
    wt, config, _ = build_model(objective, PAIRS)
    wt = {name: Tensor(t.data, requires_grad=True) for name, t in wt.items()}
    with Tape() as tape:
        with pytest.raises(ContractError, match="non-empty batch"):
            loss_fn(wt, config, [])
    assert len(tape) == 0


# ---------------------------------------------------------------------------
# frozen layers outside the step

DEEP = ModelSettings(n_layers=3, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)


def spy_steps(monkeypatch, objective):
    """Each step's (rows, states, start) as train() hands them to its loss."""
    steps = []
    loss_fn = clozerm.training._LOSSES[objective]

    def recording_loss(weights, config, batch, states, start):
        steps.append((batch, states, start))
        return loss_fn(weights, config, batch, states, start)

    monkeypatch.setitem(clozerm.training._LOSSES, objective, recording_loss)
    return steps


def spy_frozen_forwards(monkeypatch):
    """The ids of each forward that train() runs over its frozen layers."""
    forwards = []

    def recording_embed(weights, config, ids):
        forwards.append(np.asarray(ids))
        return embed(weights, config, ids)

    monkeypatch.setattr(clozerm.training, "embed", recording_embed)
    return forwards


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize(
    "objective,pooling",
    [("cloze", "cls"), ("pooled", "cls"), ("pooled", "mean"), ("token-level", "cls")],
    ids=["cloze", "pooled-cls", "pooled-mean", "token-level"],
)
def test_each_step_starts_from_batch1_states_of_its_rows(objective, pooling, batch_size, k, monkeypatch):
    # The states entering layer min(k, n_layers - 1): the last layer stays
    # in the step, where it computes the query rows as a forward from ids.
    steps = spy_steps(monkeypatch, objective)
    config = small_config(objective=objective, batch_size=batch_size, freeze=FreezeSpec(n_frozen_layers=k),
                          model=dataclasses.replace(DEEP, pooling=pooling))
    result = train(config, MIXED)
    # The embeddings and frozen layers leave training as they entered it.
    weights, model_config = result.checkpoint.tensors, result.checkpoint.config
    depth = min(k, DEEP.n_layers - 1)
    assert len(steps) == len(result.trace)
    lengths = set()
    for batch, states, start in steps:
        assert start == depth and len(states) == len(batch)
        for row, state in zip(batch, states):
            ids = np.array([row.token_ids])
            x = embed(weights, model_config, ids)
            assert np.array_equal(state, run_layers(weights, model_config, x, ids.shape[1], range(depth)).data)
            lengths.add(ids.shape[1])
    assert len(lengths) > 2


@pytest.mark.parametrize("budget", [100, 1])
def test_frozen_layers_see_each_trained_row_once_per_epoch_in_forwards_within_the_budget(budget, monkeypatch):
    config = small_config(batch_size=2, epochs=2, model=DEEP, freeze=FreezeSpec(n_frozen_layers=1))
    default = train(config, MIXED).checkpoint
    monkeypatch.setattr(clozerm.training, "TOKEN_BUDGET", budget)
    monkeypatch.setattr(clozerm.data, "TOKEN_BUDGET", budget)
    forwards = spy_frozen_forwards(monkeypatch)
    trained, ahead = [], []

    def recording_loss(weights, config, batch, states, start):
        # Tokens through the frozen layers but not yet trained on: at most
        # one run's, so at most the budget or this one step's rows.
        trained.extend(tuple(row.token_ids) for row in batch)
        done = sum(forward.size for forward in forwards) - sum(map(len, trained))
        ahead.append(done <= max(budget, sum(len(row.token_ids) for row in batch)))
        return loss_cloze(weights, config, batch, states, start)

    monkeypatch.setitem(clozerm.training._LOSSES, "cloze", recording_loss)
    result = train(config, MIXED)
    assert sorted(tuple(ids) for forward in forwards for ids in forward.tolist()) == sorted(trained)
    assert len(trained) == 2 * len(MIXED) and all(ahead)
    assert all(forward.size <= budget or len(forward) == 1 for forward in forwards)
    assert len(forwards) < len(trained) if budget > 1 else len(forwards) == len(trained)
    # How the rows are stacked changes no bit of the run.
    assert tensors_equal(result.checkpoint.tensors, default.tensors)


def test_trainable_embeddings_keep_every_layer_in_the_step(monkeypatch):
    steps = spy_steps(monkeypatch, "cloze")
    forwards = spy_frozen_forwards(monkeypatch)
    frozen = train(small_config(model=DEEP, freeze=FreezeSpec(n_frozen_layers=1)), MIXED).checkpoint
    assert forwards and all(start == 1 for _, _, start in steps)
    forwards.clear()
    steps.clear()
    config = small_config(model=DEEP, freeze=FreezeSpec(n_frozen_layers=1, freeze_embeddings=False))
    trainable = train(config, MIXED).checkpoint
    assert forwards == [] and steps
    assert all(states is None and start == 0 for _, states, start in steps)
    assert not np.array_equal(trainable.tensors["tok_emb"], frozen.tensors["tok_emb"])
    assert np.array_equal(trainable.tensors["layer0.wq"], frozen.tensors["layer0.wq"])


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "kw",
    [
        dict(learning_rate=0.0),
        dict(learning_rate=-1e-3),
        dict(weight_decay=-0.1),
        dict(batch_size=0),
        dict(epochs=0),
        dict(objective="ranking"),
        dict(order_policy="reversed"),
        dict(prefix=""),
        dict(clip_norm=0.0),
        dict(eval_every=-1),
    ],
)
def test_train_config_rejects_bad_values(kw):
    base = dict(learning_rate=1e-3)
    base.update(kw)
    with pytest.raises(ConfigError):
        TrainConfig(**base)


def test_dora_settings_rank_positive():
    with pytest.raises(ConfigError):
        DoraSettings(rank=0)


# ---------------------------------------------------------------------------
# train


def test_train_deterministic_bitwise():
    a = train(small_config(epochs=2), PAIRS)
    b = train(small_config(epochs=2), PAIRS)
    assert tensors_equal(a.checkpoint.tensors, b.checkpoint.tensors)
    assert a.trace == b.trace
    assert a.checkpoint.extra == b.checkpoint.extra


def test_train_trace_follows_schedule():
    result = train(small_config(epochs=2), PAIRS)
    total = math.ceil(len(PAIRS) / 8) * 2
    assert [row.step for row in result.trace] == list(range(total))
    for row in result.trace:
        assert row.lr == lr_linear(row.step, total, 1e-3)
        assert math.isfinite(row.loss)
    assert result.checkpoint.extra["train"]["total_steps"] == total


def test_train_records_run_metadata():
    result = train(small_config(), PAIRS)
    extra = result.checkpoint.extra
    assert extra["objective"] == "cloze"
    assert extra["template"]["prefix"] == "Solve:"
    assert extra["train"]["n_pairs"] == len(PAIRS)
    assert extra["train"]["n_skipped"] == 0
    assert extra["vocab"][:2] == ["<pad>", "<cls>"]
    assert result.checkpoint.config.head_kind == HEAD_MLM


def test_train_pooled_and_token_objectives_run():
    for objective, head in (("pooled", HEAD_POOLED), ("token-level", HEAD_TOKEN)):
        result = train(small_config(objective=objective, epochs=1), PAIRS[:8])
        assert result.checkpoint.config.head_kind == head
        assert all(math.isfinite(row.loss) for row in result.trace)


def test_train_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        train(small_config(), [])


def test_train_divergence_raises():
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="non-finite"):
            train(small_config(learning_rate=1e30), PAIRS)


def test_train_with_clip_norm_completes_and_differs_from_unclipped():
    plain = train(small_config(), PAIRS)
    clipped = train(small_config(clip_norm=0.05), PAIRS)
    assert all(math.isfinite(row.loss) for row in clipped.trace)
    # Same initial weights, so the first loss agrees; the clipped updates
    # then move the weights elsewhere.
    assert clipped.trace[0].loss == plain.trace[0].loss
    assert not tensors_equal(clipped.checkpoint.tensors, plain.checkpoint.tensors)


def test_train_skips_overlong_records():
    giant = PreferencePair(
        id="big", prompt="x " * 200, chosen="1", rejected="2", domain="reasoning"
    )
    result = train(small_config(), list(PAIRS) + [giant])
    assert len(result.skipped) == 1
    assert result.skipped[0].startswith("big:")
    assert result.checkpoint.extra["train"]["n_skipped"] == 1


def test_train_all_records_skipped_is_an_error():
    giant = PreferencePair(
        id="big", prompt="x " * 200, chosen="1", rejected="2", domain="reasoning"
    )
    with pytest.raises(DataError):
        train(small_config(), [giant])


def test_train_heldout_eval_points():
    result = train(small_config(epochs=2, eval_every=2), PAIRS, heldout=PAIRS[:4])
    total = len(result.trace)
    for row in result.trace:
        expected = (row.step + 1) % 2 == 0 or row.step + 1 == total
        assert (row.heldout_acc is not None) == expected
        if row.heldout_acc is not None:
            assert 0.0 <= row.heldout_acc <= 1.0


GIANT = PreferencePair(id="big", prompt="x " * 200, chosen="1", rejected="2", domain="reasoning")
HELDOUT = [p for task, seed in (("arithmetic", 11), ("refusal", 12), ("verbosity", 13))
           for p in synth_generate(task, 4, seed=seed)]


def test_empty_heldout_is_rejected_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(clozerm.training, "adamw_update", lambda *a, **k: steps.append(1))
    for heldout, message in ((iter([]), "held-out dataset is empty"), ([GIANT], "every held-out pair was skipped")):
        with pytest.raises(ConfigError, match=message):
            train(small_config(), PAIRS, heldout=heldout)
    assert steps == []


# The trace's held-out accuracy, scored on rows rendered once before the
# first step, is the checkpoint's eval_dataset accuracy.
@pytest.mark.parametrize("overrides,heldout", [
    ({}, HELDOUT),
    ({"objective": "pooled"}, HELDOUT),
    ({"objective": "token-level"}, HELDOUT),
    ({"dora": DoraSettings(rank=2), "freeze": FreezeSpec(n_frozen_layers=1),
      "model": dataclasses.replace(SMALL, n_layers=2)}, HELDOUT),
    ({}, HELDOUT[:6] + [GIANT] + HELDOUT[6:]),
], ids=["cloze", "pooled", "token-level", "dora", "overlong"])
def test_trace_heldout_accuracy_is_the_checkpoints_eval_accuracy(overrides, heldout):
    result = train(small_config(epochs=2, eval_every=3, **overrides), PAIRS, heldout=heldout)
    report = eval_dataset(EvalModel.from_checkpoint(result.checkpoint), heldout)
    assert result.trace[-1].heldout_acc == report.total_accuracy
    assert report.n_skipped == (GIANT in heldout)


def test_train_renders_each_heldout_pair_once(monkeypatch):
    rendered = []
    original = clozerm.data.render_pair
    monkeypatch.setattr(clozerm.data, "render_pair", lambda pair, *a: rendered.append(pair) or original(pair, *a))
    heldout = HELDOUT + [GIANT]
    result = train(small_config(eval_every=1), PAIRS, heldout=heldout)
    assert len(result.trace) > 1 and all(row.heldout_acc is not None for row in result.trace)
    assert [sum(p is pair for p in rendered) for pair in heldout] == [1] * len(heldout)


def test_train_resume_with_frozen_layers_preserves_them_bitwise():
    pre = train(small_config(), PAIRS)
    tuned = train(
        small_config(seed=8, epochs=2, freeze=FreezeSpec(n_frozen_layers=1)),
        PAIRS,
        init_from=pre.checkpoint,
    )
    frozen = [n for n in pre.checkpoint.tensors if n.startswith(("tok_emb", "pos_emb", "layer0."))]
    assert frozen
    for name in frozen:
        assert np.array_equal(tuned.checkpoint.tensors[name], pre.checkpoint.tensors[name])
    for name in ("head.w", "head.b", "final_ln.gain", "final_ln.bias"):
        assert not np.array_equal(tuned.checkpoint.tensors[name], pre.checkpoint.tensors[name])


def test_train_resume_rejects_model_mismatch():
    pre = train(small_config(), PAIRS)
    wider = dataclasses.replace(SMALL, hidden=32)
    with pytest.raises(ConfigError):
        train(small_config(model=wider), PAIRS, init_from=pre.checkpoint)


def test_train_resume_rejects_head_mismatch():
    pre = train(small_config(), PAIRS)
    with pytest.raises(ConfigError):
        train(small_config(objective="pooled"), PAIRS, init_from=pre.checkpoint)


def test_train_resume_rejects_pooling_mismatch():
    pooled = small_config(objective="pooled", model=dataclasses.replace(SMALL, pooling="cls"))
    pre = train(pooled, PAIRS)
    mean = dataclasses.replace(pooled, model=dataclasses.replace(SMALL, pooling="mean"))
    with pytest.raises(ConfigError, match="pooling"):
        train(mean, PAIRS, init_from=pre.checkpoint)
    assert train(pooled, PAIRS, init_from=pre.checkpoint).checkpoint.config.pooling == "cls"


def test_eval_every_without_heldout_is_rejected_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(clozerm.training, "backward", lambda *a: steps.append(a))
    with pytest.raises(ConfigError, match="held-out"):
        train(small_config(eval_every=1), PAIRS)
    assert steps == []


def test_train_resume_rejects_missing_or_invalid_vocab():
    pre = train(small_config(), PAIRS).checkpoint
    vocab = pre.extra["vocab"]
    for bad in (None, vocab[:-1], vocab[:-1] + vocab[-2:-1]):
        extra = {k: v for k, v in pre.extra.items() if k != "vocab"}
        if bad is not None:
            extra["vocab"] = bad
        with pytest.raises(CheckpointError, match="vocabulary"):
            train(small_config(), PAIRS, init_from=Checkpoint(pre.config, pre.tensors, extra))


def test_train_with_adapters_emits_adapter_tensors():
    result = train(small_config(dora=DoraSettings(rank=2)), PAIRS)
    names = [n for n in result.checkpoint.tensors if n.startswith("adapter.")]
    roles = ("wq", "wk", "wv", "wo", "w1", "w2")
    expected = {
        f"adapter.layer0.{role}.{part}" for role in roles for part in ("A", "B", "m")
    }
    assert set(names) == expected
    assert result.checkpoint.extra["dora"] == {"rank": 2, "targets": list(roles)}


def test_train_adapters_skip_frozen_layers():
    settings = dataclasses.replace(SMALL, n_layers=2)
    result = train(
        small_config(model=settings, dora=DoraSettings(rank=2), freeze=FreezeSpec(n_frozen_layers=1)),
        PAIRS,
    )
    names = [n for n in result.checkpoint.tensors if n.startswith("adapter.")]
    assert names and all(n.startswith("adapter.layer1.") for n in names)


def test_dora_with_every_layer_frozen_is_rejected_before_the_first_step(monkeypatch):
    # No adapter could attach, so the run would train only the final norm
    # and the head and write no dora block.
    settings = dataclasses.replace(SMALL, n_layers=2)
    base = train(small_config(model=settings), PAIRS).checkpoint
    steps = []
    monkeypatch.setattr(clozerm.training, "adamw_update", lambda *a, **k: steps.append(1))
    config = small_config(model=settings, freeze=FreezeSpec(n_frozen_layers=2), dora=DoraSettings(rank=8))
    for init_from in (base, None):
        with pytest.raises(ConfigError, match="no layer to adapt"):
            train(config, PAIRS, init_from=init_from)
    assert steps == []


ORDER_PAIRS = (
    synth_generate("arithmetic", 4, seed=3)
    + synth_generate("refusal", 4, seed=3)
    + synth_generate("verbosity", 4, seed=3)
)


@pytest.mark.parametrize(
    "objective,order_policy,max_seq",
    [("cloze", "shuffled", 32), ("cloze", "fixed", 32), ("token-level", "shuffled", 18)],
)
def test_each_step_trains_the_seeded_order_draw(objective, order_policy, max_seq, monkeypatch):
    # Each epoch makes one order_rng.random() per pair under 'shuffled'
    # (below 0.5: original), skipped pairs included, and none under 'fixed'
    # or for token-level, which trains both rows of a pair; plan_epoch on
    # shuffle_rng then orders the pairs that fit. max_seq skips 3 of the 12
    # pairs.
    loss_fn = clozerm.training._LOSSES[objective]
    trained = []

    def recording_loss(weights, config, batch, *frozen):
        trained.extend((row.source_id, row.order) for row in batch)
        return loss_fn(weights, config, batch, *frozen)

    monkeypatch.setitem(clozerm.training._LOSSES, objective, recording_loss)
    config = small_config(objective=objective, order_policy=order_policy, batch_size=1, epochs=2,
                          model=dataclasses.replace(SMALL, max_seq=max_seq))
    result = train(config, ORDER_PAIRS)

    template, tok = ClozeTemplate(config.prefix), build_tokenizer(ORDER_PAIRS)
    head = result.checkpoint.config.head_kind
    fits = []
    for pair in ORDER_PAIRS:
        try:
            render_pair(pair, template, tok, max_seq, head)
            fits.append(True)
        except SkipRecord:
            fits.append(False)
    skipped = [pair.id for pair, fit in zip(ORDER_PAIRS, fits) if not fit]
    assert len(skipped) == 3 and [s.split(":")[0] for s in result.skipped] == skipped

    _, _, order_ss, shuffle_ss = np.random.SeedSequence(config.seed).spawn(4)
    order_rng, shuffle_rng = np.random.default_rng(order_ss), np.random.default_rng(shuffle_ss)
    expected = []
    for _ in range(config.epochs):
        epoch = []
        for pair, fit in zip(ORDER_PAIRS, fits):
            order = None if objective == "token-level" else "original"
            if order is not None and order_policy == "shuffled":
                order = "original" if order_rng.random() < 0.5 else "swapped"
            if fit:
                epoch.append([(pair.id, order)] * (2 if head == HEAD_TOKEN else 1))
        expected.extend(row for batch in plan_epoch(len(epoch), 1, shuffle_rng) for i in batch for row in epoch[i])
    rows_per_step = 2 if head == HEAD_TOKEN else 1
    assert trained == expected and len(trained) == rows_per_step * len(result.trace)
    if (objective, order_policy) == ("cloze", "shuffled"):
        assert {order for _, order in trained} == {"original", "swapped"}


# train() and score_pairs leave out the same pairs at a max_seq that 3 of
# the 12 pairs cannot fit, whichever head renders them.
@pytest.mark.parametrize("objective,max_seq", [("cloze", 32), ("pooled", 24), ("token-level", 18)])
def test_training_and_scoring_skip_the_same_pairs(objective, max_seq):
    config = small_config(objective=objective, model=dataclasses.replace(SMALL, max_seq=max_seq))
    result = train(config, ORDER_PAIRS)
    skipped = []
    score_pairs(EvalModel.from_checkpoint(result.checkpoint), ORDER_PAIRS, skipped)
    assert len(skipped) == 3
    assert [s.split(":")[0] for s in result.skipped] == [pair.id for pair in skipped]


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_to_csv_golden():
    trace = [TraceRow(0, 0.1, 0.5), TraceRow(1, 0.05, 0.25, 0.75)]
    assert trace_to_csv(trace) == "step,lr,loss,heldout_acc\n0,0.1,0.5,\n1,0.05,0.25,0.75\n"


def test_trace_to_csv_roundtrips_floats():
    result = train(small_config(eval_every=1), PAIRS[:8], heldout=PAIRS[:4])
    lines = trace_to_csv(result.trace).splitlines()
    assert lines[0] == "step,lr,loss,heldout_acc"
    for row, line in zip(result.trace, lines[1:]):
        step, lr, loss, acc = line.split(",")
        assert int(step) == row.step
        assert float(lr) == row.lr
        assert float(loss) == row.loss
        assert float(acc) == row.heldout_acc


# ---------------------------------------------------------------------------
# plan_epoch


def test_plan_epoch_partitions_all_instances():
    rng = np.random.default_rng(0)
    batches = plan_epoch(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))


def test_plan_epoch_early_batches_match_corpus_proportions():
    # 70/30 corpus: over 50 seeds the first half-epoch's majority-class
    # share stays within two points of the corpus share.
    n, majority = 1000, 700
    fractions = []
    for seed in range(50):
        batches = plan_epoch(n, 50, np.random.default_rng(seed))
        first_half = np.concatenate(batches[:10])
        fractions.append(np.mean(first_half < majority))
    assert abs(np.mean(fractions) - 0.7) < 0.02


# ---------------------------------------------------------------------------
# sweep

L0 = ModelSettings(n_layers=0, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)


def l0_spec(**kw):
    base = dict(
        base=small_config(model=L0),
        trials=1,
        seed=3,
        ranks=(0,),
        heldout_fraction=0.25,
    )
    base.update(kw)
    return SweepSpec(**base)


def test_sample_trial_configs_within_bounds_and_deterministic():
    spec = l0_spec(trials=100, lr_min=1e-4, lr_max=1e-2, ranks=(0, 2), frozen_max=0)
    draws = sample_trial_configs(spec)
    assert len(draws) == 100
    for d in draws:
        assert 1e-4 <= d.learning_rate <= 1e-2
        assert d.dora_rank in (0, 2)
        assert d.frozen_layers == 0
        assert d.prefix in spec.prefixes
    # log-uniform: both decades get draws
    assert any(d.learning_rate < 1e-3 for d in draws)
    assert any(d.learning_rate > 1e-3 for d in draws)
    assert draws == sample_trial_configs(spec)
    assert draws != sample_trial_configs(l0_spec(trials=100, seed=4))


def test_trial_config_keeps_the_base_adapter_targets():
    targets = AdapterTargets(("wq", "w2"))
    spec = l0_spec(base=small_config(dora=DoraSettings(rank=4, targets=targets)), trials=6, ranks=(0, 2))
    configs = [trial_config(spec, draw) for draw in sample_trial_configs(spec)]
    assert {c.dora.rank if c.dora else 0 for c in configs} == {0, 2}
    assert all(c.dora == DoraSettings(rank=2, targets=targets) for c in configs if c.dora)


def test_trial_config_keeps_the_base_embedding_freeze():
    spec = l0_spec(base=small_config(freeze=FreezeSpec(0, freeze_embeddings=True)), trials=4)
    configs = [trial_config(spec, draw) for draw in sample_trial_configs(spec)]
    assert all(c.freeze == FreezeSpec(n_frozen_layers=0, freeze_embeddings=True) for c in configs)


def test_sweep_singleton_row():
    rows = sweep(l0_spec(), PAIRS)
    assert len(rows) == 1
    row = rows[0]
    assert row.index == 0
    assert row.n_eval == round(0.25 * len(PAIRS))
    assert row.n_train == len(PAIRS) - row.n_eval
    assert 0.0 <= row.accuracy <= 1.0
    assert row.gflops_per_token > 0
    assert row.prefix in l0_spec().prefixes


def test_sweep_rows_sorted_by_accuracy_then_cost():
    rows = sweep(l0_spec(trials=4), PAIRS)
    keys = [(-r.accuracy, r.gflops_per_token, r.index) for r in rows]
    assert keys == sorted(keys)


def test_sweep_deterministic():
    assert sweep(l0_spec(trials=2), PAIRS) == sweep(l0_spec(trials=2), PAIRS)


@pytest.mark.parametrize("ranks,frozen_max,seed,error", [
    ((0, 4), 2, 0, "DoRA has no layer to adapt: all 2 layers are frozen"),
    ((0,), 3, 0, "cannot freeze 3 layers of a 2-layer model"),
    ((0, 100), 0, 2, "rank 100 out of range for a hidden-16 model"),
], ids=["dora-all-frozen", "too-many-frozen", "rank-above-hidden"])
def test_sweep_checks_every_draw_before_the_first_trial(ranks, frozen_max, seed, error, monkeypatch):
    # On a 2-layer, hidden-16 base, each seed draws such a trial after
    # trials that would train.
    spec = SweepSpec(base=small_config(model=dataclasses.replace(SMALL, n_layers=2)),
                     trials=6, seed=seed, ranks=ranks, frozen_max=frozen_max)
    draws = sample_trial_configs(spec)
    bad = [i for i, d in enumerate(draws)
           if d.frozen_layers > 2 or (d.dora_rank and d.frozen_layers == 2) or d.dora_rank > 16]
    assert bad and bad[0] > 0
    trained = []
    monkeypatch.setattr(clozerm.training, "train", lambda *a, **k: trained.append(a))
    with pytest.raises(ConfigError, match=error):
        sweep(spec, PAIRS)
    assert trained == []


def test_sweep_needs_two_pairs():
    with pytest.raises(ConfigError):
        sweep(l0_spec(), PAIRS[:1])


@pytest.mark.parametrize(
    "kw",
    [
        dict(trials=0),
        dict(lr_min=0.0),
        dict(lr_min=1e-2, lr_max=1e-4),
        dict(ranks=()),
        dict(ranks=(-1,)),
        dict(frozen_min=1, frozen_max=0),
        dict(prefixes=()),
        dict(heldout_fraction=0.0),
        dict(heldout_fraction=1.0),
    ],
)
def test_sweep_spec_rejects_bad_values(kw):
    with pytest.raises(ConfigError):
        l0_spec(**kw)


def test_trials_to_csv_header_and_roundtrip():
    rows = sweep(l0_spec(trials=2), PAIRS)
    text = trials_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "trial,learning_rate,dora_rank,frozen_layers,prefix,accuracy,gflops_per_token,n_train,n_eval"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == rows[0].index
    assert float(first[1]) == rows[0].learning_rate
    assert float(first[6]) == rows[0].gflops_per_token


# ---------------------------------------------------------------------------
# all-at-once training


def test_train_aao_needs_two_domains():
    with pytest.raises(ConfigError):
        train_aao(small_config(), {"only": PAIRS})


def test_train_aao_routes_prefix_from_pair_domain():
    # Every pair is a reasoning pair, so an all-at-once run must match a
    # plain run that uses the reasoning prefix — even when the all-at-once
    # config carries a different prefix of its own.
    half_a, half_b = PAIRS[:8], PAIRS[8:]
    aao = train_aao(small_config(prefix="Solve:"), {"a": half_a, "b": half_b})
    plain = train(
        small_config(prefix=DOMAIN_PREFIXES["reasoning"]), list(half_a) + list(half_b)
    )
    assert tensors_equal(aao.checkpoint.tensors, plain.checkpoint.tensors)
    assert [row.loss for row in aao.trace] == [row.loss for row in plain.trace]


def test_train_aao_duplicate_domain_behaves_as_doubled_dataset():
    aao = train_aao(small_config(), {"t1": PAIRS, "t2": PAIRS})
    plain = train(small_config(prefix=DOMAIN_PREFIXES["reasoning"]), list(PAIRS) * 2)
    assert tensors_equal(aao.checkpoint.tensors, plain.checkpoint.tensors)
    assert [row.loss for row in aao.trace] == [row.loss for row in plain.trace]


AAO_DOMAINS = {
    "arithmetic": synth_generate("arithmetic", 12, seed=4),
    "refusal": synth_generate("refusal", 6, seed=5),
    "verbosity": synth_generate("verbosity", 6, seed=6),
}
AAO_HELDOUT = [p for task, seed in (("arithmetic", 7), ("refusal", 8), ("verbosity", 9))
                 for p in synth_generate(task, 4, seed=seed)]


def test_train_aao_checkpoint_and_trace_score_with_domain_prompts():
    run = train_aao(small_config(), AAO_DOMAINS, heldout=AAO_HELDOUT)
    assert run.checkpoint.extra["template"] == {
        "layout": CANONICAL_LAYOUT, "prefix": "Solve:", "domain_prefixes": DOMAIN_PREFIXES,
    }
    model = EvalModel.from_checkpoint(run.checkpoint)
    assert run.trace[-1].heldout_acc == eval_dataset(model, AAO_HELDOUT).total_accuracy
    for pair in AAO_HELDOUT:
        own = dataclasses.replace(model, template=ClozeTemplate(DOMAIN_PREFIXES[pair.domain]))
        assert score_pairs(model, [pair]) == score_pairs(own, [pair])


def test_train_aao_mixed_domains_change_the_run():
    safety = [dataclasses.replace(p, domain="safety") for p in PAIRS[8:]]
    mixed = train_aao(small_config(), {"a": PAIRS[:8], "b": safety})
    uniform = train(
        small_config(prefix=DOMAIN_PREFIXES["reasoning"]), list(PAIRS[:8]) + list(PAIRS[8:])
    )
    assert [row.loss for row in mixed.trace] != [row.loss for row in uniform.trace]
