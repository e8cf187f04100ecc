"""Encoder: loop-level oracles, head contracts, parameter accounting."""

import numpy as np
import pytest

from clozerm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from clozerm.errors import ConfigError, ContractError, ShapeError
from clozerm.model import (
    HEAD_KINDS,
    HEAD_MLM,
    HEAD_POOLED,
    HEAD_TOKEN,
    ModelConfig,
    count_params,
    embed,
    encode_batch,
    final_norm,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
    init_weights,
    manifest,
    run_layers,
)
from clozerm.tokenizer import CLS_ID, MASK_ID
from helpers import encoder_loops, head_loops


def mlm_config(**kw):
    base = dict(n_layers=1, hidden=4, n_heads=1, vocab_size=11, max_seq=8)
    base.update(kw)
    return ModelConfig(**base)


def ids_with_mask(config, seed=0, seq=3, mask_pos=1):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, config.vocab_size, size=seq)
    ids[mask_pos] = MASK_ID
    return list(ids)


# ---------------------------------------------------------------- oracles


def test_forward_mlm_single_head_loop_oracle():
    config = mlm_config()
    weights = init_weights(config, seed=3)
    ids = ids_with_mask(config, seed=3)
    got = forward_mlm_batch(weights, config, [ids], [1]).data[0]
    hidden = encoder_loops(weights, config, ids)
    want = head_loops(weights, hidden[1])[0]
    assert np.abs(got - want).max() < 1e-5


def test_forward_mlm_multi_head_loop_oracle():
    config = mlm_config(n_layers=2, hidden=8, n_heads=2, ffn_mult=2)
    weights = init_weights(config, seed=5)
    ids = ids_with_mask(config, seed=5, seq=5, mask_pos=2)
    got = forward_mlm_batch(weights, config, [ids], [2]).data[0]
    hidden = encoder_loops(weights, config, ids)
    want = head_loops(weights, hidden[2])[0]
    assert np.abs(got - want).max() < 1e-5


def test_forward_mlm_zero_weights_returns_head_bias():
    config = mlm_config()
    weights = {name: np.zeros(shape, dtype=np.float32) for name, shape in manifest(config)}
    bias = np.arange(config.vocab_size, dtype=np.float32)
    weights["head.b"] = bias
    for seed in (0, 1):
        ids = ids_with_mask(config, seed=seed)
        got = forward_mlm_batch(weights, config, [ids], [1]).data[0]
        assert np.allclose(got, bias)


def test_bidirectionality_probe():
    config = mlm_config(vocab_size=13)
    hits = 0
    for seed in range(10):
        weights = init_weights(config, seed=seed)
        ids = ids_with_mask(config, seed=seed, seq=5, mask_pos=1)
        base = forward_mlm_batch(weights, config, [ids], [1]).data[0]
        changed = list(ids)
        changed[3] = (changed[3] + 1) % config.vocab_size or 6
        after = forward_mlm_batch(weights, config, [changed], [1]).data[0]
        if np.abs(base - after).max() > 1e-6:
            hits += 1
    assert hits >= 9


def test_forward_pooled_loop_oracle():
    config = mlm_config(head_kind=HEAD_POOLED, pooling="mean", hidden=8, n_heads=2)
    weights = init_weights(config, seed=7)
    ids = [4, 6, 7, 8]
    got = forward_pooled_batch(weights, config, [ids]).data[0]
    hidden = encoder_loops(weights, config, ids)
    want = head_loops(weights, hidden.mean(axis=0))[0]
    assert np.abs(got - want).max() < 1e-5


def test_forward_pooled_single_token_mean_equals_cls():
    mean_cfg = mlm_config(head_kind=HEAD_POOLED, pooling="mean")
    cls_cfg = mlm_config(head_kind=HEAD_POOLED, pooling="cls")
    weights = init_weights(mean_cfg, seed=2)
    got_mean = forward_pooled_batch(weights, mean_cfg, [[CLS_ID]]).data[0]
    got_cls = forward_pooled_batch(weights, cls_cfg, [[CLS_ID]]).data[0]
    assert np.allclose(got_mean, got_cls)


def test_forward_pooled_mean_permutation_invariant_without_positions():
    config = mlm_config(head_kind=HEAD_POOLED, pooling="mean")
    weights = init_weights(config, seed=9)
    weights["pos_emb"] = np.zeros_like(weights["pos_emb"])
    ids = [4, 6, 7, 8, 9]
    base = forward_pooled_batch(weights, config, [ids]).data[0]
    perm = forward_pooled_batch(weights, config, [[7, 9, 4, 8, 6]]).data[0]
    assert np.abs(base - perm).max() < 1e-5


def test_forward_token_batch_loop_oracle():
    config = mlm_config(head_kind=HEAD_TOKEN)
    weights = init_weights(config, seed=11)
    ids = [4, 6, 7]
    got = forward_token_batch(weights, config, [ids]).data[0]
    hidden = encoder_loops(weights, config, ids)
    want = head_loops(weights, hidden)[:, 0]
    assert np.abs(got - want).max() < 1e-5


def test_forward_token_batch_output_length_matches_input():
    config = mlm_config(head_kind=HEAD_TOKEN)
    weights = init_weights(config, seed=0)
    for seq in (1, 7, config.max_seq):
        ids = [6] * seq
        assert forward_token_batch(weights, config, [ids]).data.shape == (1, seq)


def test_forward_token_batch_zero_head_gives_zero_scores():
    config = mlm_config(head_kind=HEAD_TOKEN)
    weights = init_weights(config, seed=0)
    weights["head.w"] = np.zeros_like(weights["head.w"])
    weights["head.b"] = np.zeros_like(weights["head.b"])
    out = forward_token_batch(weights, config, [[4, 6, 7]]).data[0]
    assert np.array_equal(out, np.zeros(3, dtype=np.float32))


# ----------------------------------------------------------- error paths


def test_forward_mlm_rejects_wrong_head():
    config = mlm_config(head_kind=HEAD_POOLED, pooling="cls")
    weights = init_weights(config, seed=0)
    with pytest.raises(ContractError):
        forward_mlm_batch(weights, config, [[CLS_ID, MASK_ID]], [1])


def test_forward_mlm_rejects_missing_mask_token():
    config = mlm_config()
    weights = init_weights(config, seed=0)
    with pytest.raises(ContractError):
        forward_mlm_batch(weights, config, [[6, 7, 8]], [1])


def test_forward_mlm_rejects_overlong_sequence():
    config = mlm_config()
    weights = init_weights(config, seed=0)
    ids = [MASK_ID] + [6] * config.max_seq
    with pytest.raises(ShapeError):
        forward_mlm_batch(weights, config, [ids], [0])


FORWARDS = {
    HEAD_MLM: lambda weights, config, ids: forward_mlm_batch(weights, config, ids, [0] * len(ids)),
    HEAD_POOLED: forward_pooled_batch,
    HEAD_TOKEN: forward_token_batch,
}


@pytest.mark.parametrize("head_kind", HEAD_KINDS)
def test_batch_forwards_reject_ids_that_are_not_a_non_empty_batch(head_kind):
    config = mlm_config(head_kind=head_kind, pooling="cls" if head_kind == HEAD_POOLED else None)
    weights = init_weights(config, seed=0)
    for ids, message in (
        ([CLS_ID, MASK_ID, 6], r"\[batch, seq\]"),
        ([[[CLS_ID, MASK_ID]]], r"\[batch, seq\]"),
        (np.zeros((0, 3), dtype=np.int64), "empty batch"),
        (np.zeros((2, 0), dtype=np.int64), "empty sequence"),
    ):
        with pytest.raises(ShapeError, match=message):
            FORWARDS[head_kind](weights, config, ids)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        mlm_config(hidden=6, n_heads=4)


# ------------------------------------------------------------- accounting


def test_count_params_manifest_enumeration():
    # L=0, V=10, H=4, max_seq=8: tok 10*4 + pos 8*4 + final LN 4+4
    # + head 4*10 + head bias 10 = 130, summed straight off the manifest
    config = ModelConfig(n_layers=0, hidden=4, n_heads=1, vocab_size=10, max_seq=8)
    assert count_params(config) == 130
    total = sum(int(np.prod(shape)) for _, shape in manifest(config))
    assert total == 130


def test_count_params_doubling_vocab_closed_form():
    small = ModelConfig(n_layers=2, hidden=8, n_heads=2, vocab_size=16, max_seq=8)
    big = ModelConfig(n_layers=2, hidden=8, n_heads=2, vocab_size=32, max_seq=8)
    # extra embeddings V*H plus untied head (H+1)*V
    want = 16 * 8 + (8 + 1) * 16
    assert count_params(big) - count_params(small) == want


def test_count_params_matches_serialized_checkpoint():
    config = mlm_config(n_layers=2, hidden=8, n_heads=2)
    weights = init_weights(config, seed=1)
    ckpt = Checkpoint(config=config, tensors=weights, extra={})
    save_checkpoint(ckpt, "/tmp/count_check.trm1")
    loaded = load_checkpoint("/tmp/count_check.trm1")
    total = sum(v.size for v in loaded.tensors.values())
    assert total == count_params(config)


# ------------------------------------------------------------- properties


def test_batch_forward_matches_per_example():
    config = mlm_config(vocab_size=13)
    weights = init_weights(config, seed=4)
    rng = np.random.default_rng(4)
    ids = rng.integers(6, 13, size=(3, 5))
    ids[:, 2] = MASK_ID
    batch = forward_mlm_batch(weights, config, ids, [2, 2, 2]).data
    for row in range(3):
        single = forward_mlm_batch(weights, config, ids[row : row + 1], [2]).data[0]
        assert np.abs(batch[row] - single).max() < 1e-6


@pytest.mark.parametrize("n_layers", [0, 2])
def test_encode_batch_at_query_rows_matches_gather_after_full(n_layers):
    config = mlm_config(n_layers=n_layers, hidden=8, n_heads=2)
    weights = init_weights(config, seed=6)
    ids = np.random.default_rng(6).integers(0, config.vocab_size, size=(3, 6))
    query = np.array([0, 5, 2])
    full = encode_batch(weights, config, ids).data
    got = encode_batch(weights, config, ids, query=query).data
    assert got.shape == (3, config.hidden)
    assert np.abs(got - full[np.arange(3) * 6 + query]).max() < 1e-6


def test_encode_batch_rejects_query_outside_a_sequence():
    config = mlm_config()
    weights = init_weights(config, seed=0)
    ids = np.full((2, 4), 6)
    for query in ([0, 4], [-1, 0], [0, 1, 2]):
        with pytest.raises(ContractError, match="query"):
            encode_batch(weights, config, ids, query=query)


@pytest.mark.parametrize("query", [None, [0, 5, 2]], ids=["every-row", "query"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_embed_run_layers_final_norm_is_bitwise_encode_batch(k, query):
    config = mlm_config(n_layers=3, hidden=8, n_heads=2)
    weights = init_weights(config, seed=9)
    ids = np.random.default_rng(9).integers(0, config.vocab_size, size=(3, 6))
    x = run_layers(weights, config, embed(weights, config, ids), 6, range(k), query)
    got = final_norm(weights, run_layers(weights, config, x, 6, range(k, 3), query)).data
    assert np.array_equal(got, encode_batch(weights, config, ids, query=query).data)


def prefix_config(head_kind, pooling=None):
    return mlm_config(n_layers=3, hidden=8, n_heads=2, head_kind=head_kind, pooling=pooling)


def prefix_ids(config):
    ids = np.random.default_rng(10).integers(6, config.vocab_size, size=(3, 6))
    ids[:, 0] = CLS_ID
    ids[:, 4] = MASK_ID
    return ids


PREFIX_FORWARDS = pytest.mark.parametrize(
    "head_kind,pooling,forward",
    [
        (HEAD_MLM, None, lambda w, c, ids, **kw: forward_mlm_batch(w, c, ids, [4, 4, 4], **kw)),
        (HEAD_POOLED, "cls", forward_pooled_batch),
        (HEAD_POOLED, "mean", forward_pooled_batch),
        (HEAD_TOKEN, None, forward_token_batch),
    ],
    ids=["mlm", "cls", "mean", "token"],
)


@PREFIX_FORWARDS
@pytest.mark.parametrize("k", [1, 2])
def test_forwards_from_the_states_entering_layer_k_are_bitwise_the_forwards_from_ids(
    head_kind, pooling, forward, k
):
    config = prefix_config(head_kind, pooling)
    weights = init_weights(config, seed=10)
    ids = prefix_ids(config)
    x = run_layers(weights, config, embed(weights, config, ids), 6, range(k))
    got = forward(weights, config, ids, x=x, start=k).data
    assert np.array_equal(got, forward(weights, config, ids).data)


@PREFIX_FORWARDS
def test_forwards_from_states_still_check_the_ids(head_kind, pooling, forward):
    config = prefix_config(head_kind, pooling)
    weights = init_weights(config, seed=10)
    ids = prefix_ids(config)
    x = run_layers(weights, config, embed(weights, config, ids), 6, range(1))
    out_of_vocab = ids.copy()
    out_of_vocab[1, 2] = config.vocab_size
    with pytest.raises(IndexError):
        forward(weights, config, out_of_vocab, x=x, start=1)
    if head_kind == HEAD_MLM or pooling == "cls":
        bad = ids.copy()
        bad[:, 4 if head_kind == HEAD_MLM else 0] = 6
        with pytest.raises(ContractError, match="mask token" if head_kind == HEAD_MLM else "CLS"):
            forward(weights, config, bad, x=x, start=1)


def test_encode_batch_rejects_states_that_do_not_enter_a_middle_layer():
    config = prefix_config(HEAD_TOKEN)
    weights = init_weights(config, seed=10)
    ids = prefix_ids(config)
    x = run_layers(weights, config, embed(weights, config, ids), 6, range(1))
    for start in (0, 3, 4):
        with pytest.raises(ContractError, match="start layer"):
            encode_batch(weights, config, ids, x=x, start=start)
    with pytest.raises(ContractError, match="start layer"):
        encode_batch(weights, config, ids, start=1)
    with pytest.raises(ShapeError, match="hidden states"):
        encode_batch(weights, config, ids[:2], x=x, start=1)


def test_cls_and_mean_pooling_give_one_row_per_sequence():
    cls_cfg = mlm_config(head_kind=HEAD_POOLED, pooling="cls", hidden=8, n_heads=2)
    mean_cfg = mlm_config(head_kind=HEAD_POOLED, pooling="mean", hidden=8, n_heads=2)
    weights = init_weights(cls_cfg, seed=3)
    ids = [[CLS_ID, 6, 7, 8, 9], [CLS_ID, 9, 4, 6, 7]]
    got_cls = forward_pooled_batch(weights, cls_cfg, ids).data
    got_mean = forward_pooled_batch(weights, mean_cfg, ids).data
    assert got_cls.shape == got_mean.shape == (2, 2)
    hidden = encode_batch(weights, cls_cfg, ids).data
    want_cls = hidden[[0, 5]] @ weights["head.w"] + weights["head.b"]
    want_mean = hidden.reshape(2, 5, -1).mean(axis=1) @ weights["head.w"] + weights["head.b"]
    assert np.abs(got_cls - want_cls).max() < 1e-5
    assert np.abs(got_mean - want_mean).max() < 1e-5


def test_serialization_round_trip_forward_bitwise():
    config = mlm_config(n_layers=2, hidden=8, n_heads=2)
    weights = init_weights(config, seed=8)
    ids = ids_with_mask(config, seed=8, seq=4, mask_pos=1)
    before = forward_mlm_batch(weights, config, [ids], [1]).data[0]
    save_checkpoint(Checkpoint(config=config, tensors=weights, extra={}), "/tmp/rt.trm1")
    loaded = load_checkpoint("/tmp/rt.trm1")
    after = forward_mlm_batch(loaded.tensors, loaded.config, [ids], [1]).data[0]
    assert np.array_equal(before, after)


def test_init_weights_deterministic_and_shaped():
    config = mlm_config(n_layers=1, hidden=8, n_heads=2)
    w1 = init_weights(config, seed=12)
    w2 = init_weights(config, seed=12)
    assert set(w1) == {name for name, _ in manifest(config)}
    for name, shape in manifest(config):
        assert w1[name].shape == tuple(shape)
        assert w1[name].dtype == np.float32
        assert np.array_equal(w1[name], w2[name])
    w3 = init_weights(config, seed=13)
    assert any(not np.array_equal(w1[n], w3[n]) for n in w1)
