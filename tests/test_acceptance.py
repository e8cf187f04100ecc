"""The eleven acceptance checks, one test per criterion.

Each test prints a single `[criterion N] PASS` / `[criterion N] FAIL`
line (visible with -s, or in the captured output on failure) in addition
to its asserts. Criterion 7 trains ten small models and dominates the
suite's runtime (a few minutes); everything else completes in seconds.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from clozerm.checkpoint import Checkpoint, load_checkpoint
from clozerm.cli import run
from clozerm.data import (
    ClozeTemplate,
    build_tokenizer,
    load_jsonl,
    save_jsonl,
    synth_generate,
)
from clozerm.evaluation import (
    EvalModel,
    TIE_EPS,
    TrialRecord,
    aggregate_trials,
    compare_objectives,
    eval_dataset,
    flops_per_token,
    format_score,
    overall,
)
from clozerm.model import count_params, forward_mlm_batch, init_weights
from clozerm.peft import (
    AdapterTargets,
    FreezeSpec,
    adapted_forward_weights,
    adapter_tensors,
    dora_init,
    merge_checkpoint,
    weight_average,
)
from clozerm.tensor import dora_weight
from clozerm.tokenizer import MASK_ID, VERB1_ID
from clozerm.training import (
    DoraSettings,
    ModelSettings,
    OBJECTIVES,
    OptimizerState,
    TrainConfig,
    adamw_update,
    model_config_for,
    train,
)

from helpers import gradcheck
from test_tensor import GRAD_CASES

SMALL = ModelSettings(n_layers=1, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)
SMALL_PAIRS = synth_generate("arithmetic", 16, seed=2)


def criterion(n):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {n}] FAIL")
                raise
            print(f"[criterion {n}] PASS" + (f" ({detail})" if detail else ""))

        return wrapper

    return decorate


def small_config(**kw):
    base = dict(learning_rate=1e-3, batch_size=8, seed=7, model=SMALL, prefix="Solve:")
    base.update(kw)
    return TrainConfig(**base)


@criterion(1)
def test_criterion_01_table1_overall_arithmetic():
    assert format_score(overall(78.8, 91.2, 89.3)) == "86.4"
    assert format_score(overall(71.0, 76.7, 79.2)) == "75.6"


@criterion(2)
def test_criterion_02_cost_model():
    assert flops_per_token(10**6, 10, 100) == 2.6e6

    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(10**3, 10**9))
        layers = int(rng.integers(1, 64))
        hidden = int(rng.integers(1, 4096))
        base = flops_per_token(n, layers, hidden)
        assert flops_per_token(n + 1, layers, hidden) > base
        assert flops_per_token(n, layers + 1, hidden) > base
        assert flops_per_token(n, layers, hidden + 1) < base

    plain = train(small_config(), SMALL_PAIRS)
    adapted = train(small_config(dora=DoraSettings(rank=2)), SMALL_PAIRS)
    merged = merge_checkpoint(adapted.checkpoint)
    n_merged = sum(arr.size for arr in merged.tensors.values())
    n_plain = sum(arr.size for arr in plain.checkpoint.tensors.values())
    assert n_merged == n_plain == count_params(merged.config)
    assert flops_per_token(n_merged, SMALL.n_layers, SMALL.hidden) == flops_per_token(
        n_plain, SMALL.n_layers, SMALL.hidden
    )
    return f"merged and base both {n_merged} params"


@criterion(3)
def test_criterion_03_gradient_suite():
    for name, case in GRAD_CASES.items():
        for seed in range(5):
            fn, arrays = case(seed)
            gradcheck(fn, arrays, tol=1e-3)
    return f"{len(GRAD_CASES)} ops x 5 seeds"


@criterion(4)
def test_criterion_04_dora_identity_and_merge():
    # identity at init, per matrix
    rng = np.random.default_rng(0)
    for _ in range(10):
        d_out, d_in = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        w0 = rng.normal(size=(d_out, d_in)).astype(np.float32)
        adapter = dora_init(w0, rank=min(2, d_out, d_in), rng=rng)
        assert np.abs(dora_weight(w0.T, adapter.A, adapter.B, adapter.m).data.T - w0).max() < 1e-6

    # end-to-end adapter-vs-merged equivalence
    from test_peft import perturb, random_adapted_model

    for seed in range(3):
        config, weights, adapters = random_adapted_model(seed)
        perturb(adapters, seed + 100)
        ckpt = Checkpoint(
            config=config,
            tensors={**{n: np.asarray(w) for n, w in weights.items()}, **adapter_tensors(adapters)},
            extra={"dora": {"rank": 2, "targets": list(AdapterTargets().roles)}},
        )
        merged = merge_checkpoint(ckpt)
        case_rng = np.random.default_rng(seed)
        for _ in range(20):
            seq = int(case_rng.integers(2, config.max_seq + 1))
            ids = case_rng.integers(6, config.vocab_size, size=seq)
            pos = int(case_rng.integers(0, seq))
            ids[pos] = MASK_ID
            via_adapter = forward_mlm_batch(
                adapted_forward_weights(weights, adapters), config, [ids], [pos]
            ).data[0]
            via_merged = forward_mlm_batch(merged.tensors, merged.config, [ids], [pos]).data[0]
            assert np.abs(via_adapter - via_merged).max() < 1e-4


@criterion(5)
def test_criterion_05_freeze_bit_exactness():
    settings = ModelSettings(n_layers=4, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)
    pairs = synth_generate("arithmetic", 25, seed=4)
    pre = train(small_config(model=settings), pairs)
    tuned = train(
        small_config(model=settings, batch_size=1, epochs=2, seed=9,
                     freeze=FreezeSpec(n_frozen_layers=2)),
        pairs,
        init_from=pre.checkpoint,
    )
    assert len(tuned.trace) == 50
    frozen = [
        name for name in pre.checkpoint.tensors
        if name.startswith(("tok_emb", "pos_emb", "layer0.", "layer1."))
    ]
    assert len(frozen) > 2
    for name in frozen:
        assert np.array_equal(tuned.checkpoint.tensors[name], pre.checkpoint.tensors[name])
    assert not np.array_equal(tuned.checkpoint.tensors["head.w"], pre.checkpoint.tensors["head.w"])
    return f"{len(frozen)} tensors bitwise stable over 50 steps"


@criterion(6)
def test_criterion_06_decoupled_decay_law():
    p = np.random.default_rng(1).normal(size=(128,)).astype(np.float32)
    start = p.astype(np.float64)
    state = OptimizerState()
    for _ in range(100):
        adamw_update(p, np.zeros_like(p), state, lr_t=0.1, weight_decay=0.01)
    law = start * (1.0 - 0.1 * 0.01) ** 100
    rel = np.max(np.abs(p.astype(np.float64) - law) / np.abs(law))
    assert rel < 1e-5
    return f"max rel err {rel:.2e}"


TOY = ModelSettings(n_layers=2, hidden=64, n_heads=8, ffn_mult=4, max_seq=64)


def toy_config(seed, **kw):
    base = dict(learning_rate=1.75e-3, batch_size=1, seed=seed, model=TOY, prefix="Solve:")
    base.update(kw)
    return TrainConfig(**base)


def heldout_accuracy(checkpoint, heldout):
    model = EvalModel.from_checkpoint(checkpoint)
    return eval_dataset(model, heldout).total_accuracy


@criterion(7)
def test_criterion_07_toy_task_learning():
    train_pairs = synth_generate("arithmetic", 5000, seed=0)
    heldout = synth_generate("arithmetic", 500, seed=10000)

    full_acc = []
    seed0_checkpoint = None
    for seed in range(5):
        result = train(toy_config(seed), train_pairs)
        if seed == 0:
            seed0_checkpoint = result.checkpoint
        # one-epoch learning signal: early mean loss exceeds late mean loss
        losses = [row.loss for row in result.trace]
        tenth = max(1, len(losses) // 10)
        assert np.mean(losses[:tenth]) > np.mean(losses[-tenth:])
        full_acc.append(heldout_accuracy(result.checkpoint, heldout))
    assert sum(acc >= 0.90 for acc in full_acc) >= 4, full_acc

    dora_acc = []
    for seed in range(5):
        cfg = toy_config(seed, freeze=FreezeSpec(n_frozen_layers=1), dora=DoraSettings(rank=8))
        result = train(cfg, train_pairs, init_from=seed0_checkpoint)
        dora_acc.append(heldout_accuracy(result.checkpoint, heldout))
    assert sum(acc >= 0.90 for acc in dora_acc) >= 4, dora_acc

    fmt = lambda accs: "/".join(f"{a:.3f}" for a in accs)  # noqa: E731
    return f"full-rank {fmt(full_acc)}; dora {fmt(dora_acc)}"


@criterion(8)
def test_criterion_08_forced_evaluation_cases():
    tokenizer = build_tokenizer(SMALL_PAIRS)
    config = model_config_for(SMALL, "cloze", len(tokenizer))
    template = ClozeTemplate(prefix="Which response is more correct?")
    zero = init_weights(config, seed=0)
    for name in zero:
        zero[name][:] = 0

    all_tie = EvalModel(config=config, weights=zero, tokenizer=tokenizer, template=template)
    report = eval_dataset(all_tie, SMALL_PAIRS)
    assert report.total_accuracy == 0.5
    assert report.position_bias == 0.0

    constant = {name: arr.copy() for name, arr in zero.items()}
    constant["head.b"][VERB1_ID] = 10.0
    always_one = EvalModel(config=config, weights=constant, tokenizer=tokenizer, template=template)
    report = eval_dataset(always_one, SMALL_PAIRS)
    assert report.total_accuracy == 0.5
    assert report.position_bias == 1.0

    def rec(pid, domain, order, p1, gold):
        p2 = 1.0 - p1
        pred = "tie" if abs(p1 - p2) < TIE_EPS else ("1" if p1 > p2 else "2")
        return TrialRecord(pid, domain, order, p1, p2, pred, gold)

    trials = [
        rec("a", "chat", "original", 0.9, "1"),
        rec("a", "chat", "swapped", 0.9, "2"),
        rec("b", "chat", "original", 0.2, "1"),
        rec("b", "chat", "swapped", 0.2, "2"),
        rec("c", "reasoning", "original", 0.5, "1"),
        rec("c", "reasoning", "swapped", 0.7, "2"),
        rec("d", "reasoning", "original", 0.99, "1"),
        rec("d", "reasoning", "swapped", 0.01, "2"),
    ]
    report = aggregate_trials(trials)
    assert report.total_accuracy == (2 + 2.5) / 8
    assert report.chat == 0.5
    assert report.reasoning == 0.625
    assert report.overall == (0.5 + 0.625) / 2
    assert report.position_bias == 0.125


@criterion(9)
def test_criterion_09_weight_averaging():
    specialist_a = train(small_config(seed=0), SMALL_PAIRS).checkpoint
    specialist_b = train(small_config(seed=1), SMALL_PAIRS).checkpoint

    # singleton identity and idempotence, bitwise
    single = weight_average([specialist_a])
    pair_avg = weight_average([specialist_a, specialist_a])
    for name, arr in specialist_a.tensors.items():
        assert np.array_equal(single.tensors[name], arr)
        assert np.array_equal(pair_avg.tensors[name], arr)

    # zeros/W -> W/2, exact
    zeros = Checkpoint(
        config=specialist_a.config,
        tensors={name: np.zeros_like(arr) for name, arr in specialist_a.tensors.items()},
        extra=specialist_a.extra,
    )
    halved = weight_average([specialist_a, zeros])
    for name, arr in specialist_a.tensors.items():
        assert np.array_equal(halved.tensors[name], arr / 2)

    # two arithmetic specialists average into a loadable, evaluable model
    averaged = weight_average([specialist_a, specialist_b])
    report = eval_dataset(EvalModel.from_checkpoint(averaged), SMALL_PAIRS)
    assert 0.0 <= report.total_accuracy <= 1.0
    return f"averaged specialists score {report.total_accuracy:.3f} (no bar)"


@criterion(10)
def test_criterion_10_byte_identical_artifacts(tmp_path):
    data = tmp_path / "corpus.jsonl"
    save_jsonl(SMALL_PAIRS, data)
    tiny = ["--n-layers", "1", "--hidden", "16", "--n-heads", "2", "--ffn-mult", "2",
            "--max-seq", "48", "--batch-size", "8", "--prefix", "Solve:"]

    outs = {}
    for tag in ("one", "two"):
        synth = tmp_path / f"synth-{tag}.jsonl"
        ckpt = tmp_path / f"train-{tag}.trm1"
        trials = tmp_path / f"sweep-{tag}.csv"
        report = tmp_path / f"eval-{tag}.json"
        assert run(["synth", "--task", "arithmetic", "--n", "60", "--seed", "7",
                    "--out", str(synth)]) == 0
        assert run(["train", "--data", str(data), "--out", str(ckpt), *tiny]) == 0
        assert run(["sweep", "--data", str(data), "--trials", "2", "--ranks", "0",
                    "--out", str(trials), *tiny[:-2], "--n-layers", "0",
                    "--prefix", "Solve:"]) == 0
        assert run(["eval", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(report)]) == 0
        outs[tag] = tuple(p.read_bytes() for p in (synth, ckpt, trials, report))
    assert outs["one"] == outs["two"]


@criterion(11)
def test_criterion_11_objective_comparison():
    pairs = synth_generate("arithmetic", 16, seed=6)
    cfg = small_config(seed=4)
    cmp = compare_objectives(pairs, cfg, heldout_fraction=0.25)
    assert [row.objective for row in cmp.rows] == list(OBJECTIVES)
    for row in cmp.rows:
        assert row.n_train == cmp.rows[0].n_train
        assert row.n_heldout == cmp.rows[0].n_heldout
        assert row.epochs == cfg.epochs
        assert row.batch_size == cfg.batch_size
        assert row.learning_rate == cfg.learning_rate
        assert row.total_steps == cmp.rows[0].total_steps

    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    perm = split_rng.permutation(len(pairs))
    held = [pairs[i] for i in perm[: round(0.25 * len(pairs))]]
    for row in cmp.rows:
        model = EvalModel.from_checkpoint(cmp.checkpoints[row.objective])
        assert eval_dataset(model, held).total_accuracy == row.heldout_accuracy

    again = compare_objectives(pairs, cfg, heldout_fraction=0.25)
    assert again.rows == cmp.rows
    return "; ".join(f"{r.objective} {r.heldout_accuracy:.2f}" for r in cmp.rows)
