"""DoRA adapters, freezing manifests, merging, weight averaging."""

import numpy as np
import pytest

from clozerm.checkpoint import Checkpoint
from clozerm.data import DOMAIN_PREFIXES, ClozeTemplate
from clozerm.errors import ConfigError, ContractError
from clozerm.model import ModelConfig, count_params, forward_mlm_batch, init_weights, manifest
from clozerm.peft import (
    AdapterTargets,
    DoraAdapter,
    FreezeSpec,
    adapted_forward_weights,
    adapter_tensors,
    apply_freeze,
    attach_adapters,
    dora_init,
    merge_adapters,
    merge_checkpoint,
    weight_average,
)
from clozerm.tensor import Tape, Tensor, dora_weight, tsum
from clozerm.tokenizer import MASK_ID


def mlm_config(**kw):
    base = dict(n_layers=2, hidden=8, n_heads=2, vocab_size=11, max_seq=8, ffn_mult=2)
    base.update(kw)
    return ModelConfig(**base)


# ------------------------------------------------------------- dora_init


def test_init_is_identity():
    rng = np.random.default_rng(0)
    w0 = rng.normal(size=(4, 6)).astype(np.float32)
    adapter = dora_init(w0, rank=2)
    eff = dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data.T
    assert np.abs(eff - w0).max() < 1e-6


# The README widths in both FFN orientations, each with an all-zero output
# feature, which takes the norm clamp.
@pytest.mark.parametrize("d_out,d_in", [(64, 64), (256, 64), (64, 256)])
def test_init_merges_back_to_the_base_bit_for_bit(d_out, d_in):
    rng = np.random.default_rng(d_out + d_in)
    w0 = rng.normal(size=(d_out, d_in)).astype(np.float32)
    w0[1] = 0.0
    adapter = dora_init(w0, rank=8, rng=rng)
    merged = dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data
    assert merged.flags.c_contiguous and merged.tobytes() == w0.T.tobytes()


def test_init_unit_rows_for_identity_base():
    adapter = dora_init(np.eye(3, dtype=np.float32), rank=1)
    assert np.allclose(adapter.m.data, [1.0, 1.0, 1.0])
    assert np.array_equal(adapter.B.data, np.zeros((3, 1), dtype=np.float32))


def test_init_hand_norms_and_zero_row_guard():
    w0 = np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32)
    adapter = dora_init(w0, rank=1)
    assert np.allclose(adapter.m.data, [5.0, 0.0])
    eff = dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data.T
    assert np.isfinite(eff).all()
    assert np.abs(eff - w0).max() < 1e-6  # zero row stays zero, no NaN


def test_init_a_bounded_by_fan_in():
    rng = np.random.default_rng(1)
    w0 = rng.normal(size=(5, 16)).astype(np.float32)
    adapter = dora_init(w0, rank=3, rng=np.random.default_rng(2))
    bound = 1.0 / np.sqrt(16)
    assert np.abs(adapter.A.data).max() <= bound


def test_init_rank_out_of_range():
    w0 = np.zeros((3, 4), dtype=np.float32)
    for rank in (0, 4):
        with pytest.raises(ConfigError):
            dora_init(w0, rank=rank)


# ----------------------------------------------------------- dora_weight


def test_effective_rescales_rows_to_magnitude():
    w0 = np.array([[3.0, 4.0]], dtype=np.float32)
    adapter = dora_init(w0, rank=1)
    adapter.m.data[...] = [10.0]
    eff = dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data.T
    assert np.abs(eff - [[6.0, 8.0]]).max() < 1e-5


def test_effective_against_loop_oracle():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(4, 6)).astype(np.float32)
    adapter = dora_init(w0, rank=2, rng=np.random.default_rng(4))
    adapter.B.data[...] = rng.normal(size=(4, 2)).astype(np.float32)
    adapter.m.data[...] = rng.normal(size=4).astype(np.float32)
    got = dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data.T

    directed = w0.astype(np.float64) + adapter.B.data.astype(np.float64) @ adapter.A.data.astype(np.float64)
    want = np.empty_like(directed)
    for i in range(directed.shape[0]):
        norm = max(np.sqrt((directed[i] ** 2).sum()), 1e-8)
        want[i] = adapter.m.data[i] * directed[i] / norm
    assert np.abs(got - want).max() < 1e-6


def test_effective_gradients_reach_adapter_not_base():
    rng = np.random.default_rng(5)
    w0 = rng.normal(size=(3, 5)).astype(np.float32)
    adapter = dora_init(w0, rank=2, rng=np.random.default_rng(6))
    adapter.B.data[...] = rng.normal(size=(3, 2)).astype(np.float32)  # B = 0 would stop A's gradient
    base = Tensor(w0.T, requires_grad=True)  # input-by-output, as the encoder stores it
    with Tape() as tape:
        loss = tsum(dora_weight(base, adapter.A, adapter.B, adapter.m))
    tape.backward(loss)
    assert base.grad is None
    for grad in (adapter.A.grad, adapter.B.grad, adapter.m.grad):
        assert grad is not None and np.abs(grad).sum() > 0


def test_merge_equals_effective():
    rng = np.random.default_rng(7)
    w0 = rng.normal(size=(4, 4)).astype(np.float32)
    adapter = dora_init(w0, rank=2, rng=np.random.default_rng(8))
    adapter.B.data[...] = rng.normal(size=(4, 2)).astype(np.float32)
    with Tape() as tape:
        eff = dora_weight(w0.T, adapter.A, adapter.B, adapter.m)
    assert len(tape) == 1
    assert np.array_equal(merge_adapters({"w": w0.T}, {"w": adapter})["w"], eff.data)


# -------------------------------------------------- end-to-end adapters


def random_adapted_model(seed, rank=2):
    rng = np.random.default_rng(seed)
    config = mlm_config(
        n_layers=int(rng.integers(1, 3)),
        hidden=8,
        n_heads=int(rng.choice([1, 2, 4])),
    )
    weights = init_weights(config, seed=seed)
    adapters = attach_adapters(
        weights, rank, AdapterTargets(), FreezeSpec(), rng=rng
    )
    return config, weights, adapters


def perturb(adapters, seed):
    rng = np.random.default_rng(seed)
    for ad in adapters.values():
        ad.B.data[...] = rng.normal(scale=0.3, size=ad.B.data.shape).astype(np.float32)
        ad.m.data[...] += rng.normal(scale=0.1, size=ad.m.data.shape).astype(np.float32)


def test_identity_at_init_end_to_end():
    for seed in range(3):
        config, weights, adapters = random_adapted_model(seed)
        ids = [6, MASK_ID, 7, 8]
        base = forward_mlm_batch(weights, config, [ids], [1]).data[0]
        adapted = forward_mlm_batch(adapted_forward_weights(weights, adapters), config, [ids], [1]).data[0]
        assert np.abs(adapted - base).max() < 1e-4


def test_adapted_forward_at_init_is_the_base_forward_bit_for_bit():
    config = mlm_config(hidden=64, n_heads=8, ffn_mult=4, max_seq=16)
    weights = init_weights(config, seed=3)
    adapters = attach_adapters(weights, 8, AdapterTargets(), FreezeSpec(), rng=0)
    ids = [6, MASK_ID, 7, 8, 9]
    base = forward_mlm_batch(weights, config, [ids], [1]).data[0]
    with Tape():
        adapted = forward_mlm_batch(adapted_forward_weights(weights, adapters), config, [ids], [1]).data[0]
    assert adapted.tobytes() == base.tobytes()


def test_adapter_path_matches_merged_path():
    for seed in range(3):
        config, weights, adapters = random_adapted_model(seed)
        perturb(adapters, seed + 100)
        ckpt = Checkpoint(
            config=config,
            tensors={**{n: np.asarray(w) for n, w in weights.items()}, **adapter_tensors(adapters)},
            extra={"dora": {"rank": 2, "targets": list(AdapterTargets().roles)}},
        )
        merged = merge_checkpoint(ckpt)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            seq = int(rng.integers(2, config.max_seq + 1))
            ids = rng.integers(6, config.vocab_size, size=seq)
            pos = int(rng.integers(0, seq))
            ids[pos] = MASK_ID
            via_adapter = forward_mlm_batch(
                adapted_forward_weights(weights, adapters), config, [ids], [pos]
            ).data[0]
            via_merged = forward_mlm_batch(merged.tensors, merged.config, [ids], [pos]).data[0]
            assert np.abs(via_adapter - via_merged).max() < 1e-4


def test_merge_drops_adapter_tensors_and_extra():
    config, weights, adapters = random_adapted_model(0)
    ckpt = Checkpoint(
        config=config,
        tensors={**weights, **adapter_tensors(adapters)},
        extra={"dora": {"rank": 2}, "vocab": ["a"]},
    )
    merged = merge_checkpoint(ckpt)
    assert not any(n.startswith("adapter.") for n in merged.tensors)
    assert "dora" not in merged.extra
    assert merged.extra["vocab"] == ["a"]
    assert sum(v.size for v in merged.tensors.values()) == count_params(config)


def test_merge_adapters_on_live_tensors_matches_merge_checkpoint():
    # the training loop merges its live Tensors for held-out scoring; that
    # must give the very weights a saved-then-merged checkpoint gives
    config, weights, adapters = random_adapted_model(2)
    perturb(adapters, 7)
    ckpt = Checkpoint(
        config=config,
        tensors={**weights, **adapter_tensors(adapters)},
        extra={"dora": {"rank": 2}},
    )
    live = merge_adapters({n: Tensor(w) for n, w in weights.items()}, adapters)
    merged = merge_checkpoint(ckpt).tensors
    assert list(live) == list(merged)
    assert all(np.array_equal(live[n], merged[n]) for n in merged)
    assert any(not np.array_equal(merged[n], weights[n]) for n in adapters)


def test_identity_merge_reproduces_base():
    config, weights, adapters = random_adapted_model(1)
    ckpt = Checkpoint(
        config=config,
        tensors={**weights, **adapter_tensors(adapters)},
        extra={"dora": {"rank": 2}},
    )
    merged = merge_checkpoint(ckpt)
    for name, arr in weights.items():
        assert np.abs(merged.tensors[name] - arr).max() < 1e-6


def test_gradient_routing_through_attached_adapters():
    hits = 0
    for seed in range(10):
        config, weights, adapters = random_adapted_model(seed)
        wt = {n: Tensor(np.asarray(w), requires_grad=True) for n, w in weights.items()}
        ids = [6, MASK_ID, 7]
        with Tape() as tape:
            logits = forward_mlm_batch(adapted_forward_weights(wt, adapters), config, [ids], [1])
            loss = tsum(logits)
        tape.backward(loss)
        adapted_names = set(adapters)
        base_grads_zero = all(
            wt[n].grad is None or np.abs(wt[n].grad).max() == 0 for n in adapted_names
        )
        adapter_grads_live = all(
            ad.B.grad is not None and np.abs(ad.B.grad).sum() > 0 for ad in adapters.values()
        ) and all(
            ad.m.grad is not None and np.abs(ad.m.grad).sum() > 0 for ad in adapters.values()
        )
        if base_grads_zero and adapter_grads_live:
            hits += 1
    assert hits >= 9


def test_adapters_skip_frozen_layers():
    config = mlm_config(n_layers=3)
    weights = init_weights(config, seed=2)
    adapters = attach_adapters(
        weights, 2, AdapterTargets(), FreezeSpec(n_frozen_layers=2), rng=0
    )
    assert adapters
    assert all(name.startswith("layer2.") for name in adapters)


def test_adapter_targets_validation():
    with pytest.raises(ConfigError):
        AdapterTargets(roles=())
    with pytest.raises(ConfigError):
        AdapterTargets(roles=("wq", "nope"))
    with pytest.raises(ConfigError):
        AdapterTargets(roles=("wq", "wq"))


# ---------------------------------------------------------------- freeze


def test_apply_freeze_noop_keeps_everything():
    config = mlm_config()
    weights = init_weights(config, seed=0)
    names = apply_freeze(weights, FreezeSpec(n_frozen_layers=0, freeze_embeddings=False))
    assert names == [name for name, _ in manifest(config)]


def test_apply_freeze_maximal_leaves_head_and_final_ln():
    config = mlm_config(n_layers=2)
    weights = init_weights(config, seed=0)
    names = apply_freeze(weights, FreezeSpec(n_frozen_layers=2))
    assert sorted(names) == sorted(["final_ln.gain", "final_ln.bias", "head.w", "head.b"])


def test_apply_freeze_embeddings_default_on_when_layers_frozen():
    config = mlm_config()
    weights = init_weights(config, seed=0)
    names = apply_freeze(weights, FreezeSpec(n_frozen_layers=1))
    assert "tok_emb" not in names and "pos_emb" not in names
    assert not any(n.startswith("layer0.") for n in names)
    assert any(n.startswith("layer1.") for n in names)


def test_apply_freeze_too_many_layers():
    config = mlm_config(n_layers=2)
    weights = init_weights(config, seed=0)
    with pytest.raises(ConfigError):
        apply_freeze(weights, FreezeSpec(n_frozen_layers=3))


# -------------------------------------------------------- weight_average


def ckpt_with(value_fn, seed=0):
    config = mlm_config(n_layers=1)
    weights = init_weights(config, seed=seed)
    tensors = {n: value_fn(w) for n, w in weights.items()}
    return Checkpoint(config=config, tensors=tensors, extra={})


def test_average_idempotent():
    ck = ckpt_with(lambda w: w.copy())
    avg = weight_average([ck, ck, ck])
    for name in ck.tensors:
        assert np.array_equal(avg.tensors[name], ck.tensors[name])


def test_average_singleton_identity():
    ck = ckpt_with(lambda w: w.copy())
    avg = weight_average([ck])
    for name in ck.tensors:
        assert np.array_equal(avg.tensors[name], ck.tensors[name])


def test_average_zeros_halves():
    ck = ckpt_with(lambda w: w.copy(), seed=5)
    zeros = ckpt_with(np.zeros_like, seed=5)
    avg = weight_average([zeros, ck])
    for name in ck.tensors:
        assert np.abs(avg.tensors[name] - ck.tensors[name] / 2).max() < 1e-7


def test_average_permutation_invariant_bitwise():
    a = ckpt_with(lambda w: w.copy(), seed=1)
    b = ckpt_with(lambda w: w + 0.25, seed=1)
    c = ckpt_with(lambda w: w - 0.125, seed=1)
    first = weight_average([a, b, c])
    second = weight_average([c, a, b])
    for name in first.tensors:
        assert np.array_equal(first.tensors[name], second.tensors[name])


def test_average_names_first_differing_tensor():
    a = ckpt_with(lambda w: w.copy())
    b = ckpt_with(lambda w: w.copy())
    renamed = dict(b.tensors)
    renamed["zzz_extra"] = renamed.pop("head.b")
    b = Checkpoint(config=b.config, tensors=renamed, extra={})
    with pytest.raises(ContractError, match="head.b"):
        weight_average([a, b])


def test_average_rejects_unmerged_adapters():
    a = ckpt_with(lambda w: w.copy())
    tensors = dict(a.tensors)
    tensors["adapter.layer0.wq.A"] = np.zeros((2, 8), dtype=np.float32)
    bad = Checkpoint(config=a.config, tensors=tensors, extra={})
    with pytest.raises(ContractError, match="adapter"):
        weight_average([bad, bad])


def test_average_rejects_config_mismatch():
    a = ckpt_with(lambda w: w.copy())
    other_cfg = mlm_config(n_layers=1, hidden=4, n_heads=1)
    b = Checkpoint(
        config=other_cfg,
        tensors={n: w.copy() for n, w in init_weights(other_cfg, seed=0).items()},
        extra={},
    )
    with pytest.raises(ContractError):
        weight_average([a, b])


def test_average_keeps_template_block_only_when_all_agree():
    mapped = ClozeTemplate("Solve:", DOMAIN_PREFIXES).to_block()
    plain = ClozeTemplate("Solve:").to_block()

    def with_template(block, seed):
        ck = ckpt_with(lambda w: w.copy(), seed=seed)
        ck.extra = {"template": block}
        return ck

    agreeing = [with_template(mapped, 0), with_template(mapped, 1)]
    assert weight_average(agreeing).extra["template"] == mapped
    for blocks in ((mapped, plain), (plain, mapped, plain), (mapped, None)):
        averaged = weight_average([with_template(b, i) for i, b in enumerate(blocks)])
        assert "template" not in averaged.extra
