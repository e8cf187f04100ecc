"""Pairwise scoring, report aggregation, the FLOPs cost model, tradeoff
CSV emission, and the three-objective comparison."""

import itertools
import json
import math
import multiprocessing
import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import clozerm.evaluation
from clozerm.checkpoint import Checkpoint
from clozerm.data import (
    DOMAIN_PREFIXES,
    ORDER_SWAPPED,
    ORDERS,
    ClozeTemplate,
    PreferencePair,
    build_tokenizer,
    render_pair,
    synth_generate,
)
from clozerm.errors import CheckpointError, ConfigError, ContractError, DivergenceError, ShapeError, SkipRecord
from clozerm.evaluation import (
    TIE_EPS,
    TOKEN_BUDGET,
    EvalModel,
    TradeoffPoint,
    TrialRecord,
    aggregate_chat,
    aggregate_trials,
    compare_objectives,
    comparison_to_json,
    comparison_to_table,
    emit_tradeoff,
    eval_dataset,
    flops_per_token,
    format_gflops,
    format_score,
    overall,
    parse_tradeoff,
    report_to_json,
    report_to_table,
    score_pairs,
)
from clozerm.model import (
    HEAD_MLM,
    HEAD_POOLED,
    HEAD_TOKEN,
    count_params,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
    init_weights,
)
from clozerm.peft import merge_checkpoint
from clozerm.tensor import Tape, Tensor
from clozerm.tokenizer import VERB1_ID, VERB2_ID
from clozerm.training import (
    DoraSettings,
    ModelSettings,
    OBJECTIVES,
    TrainConfig,
    model_config_for,
    train,
)

SMALL = ModelSettings(n_layers=1, hidden=16, n_heads=2, ffn_mult=2, max_seq=48)
PAIRS = synth_generate("arithmetic", 8, seed=2)
# Nine single-length arithmetic pairs (two full scoring chunks and a
# remainder) among refusal and verbosity pairs of many lengths, shuffled.
MIXED = (synth_generate("arithmetic", 9, seed=4) + synth_generate("refusal", 6, seed=5)
         + synth_generate("verbosity", 6, seed=6))
random.Random(0).shuffle(MIXED)
TEMPLATE = ClozeTemplate(prefix=DOMAIN_PREFIXES["reasoning"])


def make_model(objective="cloze", pairs=PAIRS, seed=0, zero=False, settings=SMALL):
    tokenizer = build_tokenizer(pairs)
    config = model_config_for(settings, objective, len(tokenizer))
    weights = init_weights(config, seed=seed)
    if zero:
        for name in weights:
            weights[name][:] = 0
    return EvalModel(config=config, weights=weights, tokenizer=tokenizer, template=TEMPLATE)


OPENBLAS = clozerm.evaluation._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="no settable OpenBLAS thread count")


def blas_threads():
    """The loaded OpenBLAS's thread count, or None without one."""
    return None if OPENBLAS is None else OPENBLAS[0]()


@pytest.fixture
def blas_count():
    """The OpenBLAS thread count set to 3 for the test, so that restoring
    any other count shows; None without a settable OpenBLAS."""
    if OPENBLAS is None:
        yield None
        return
    get, set_ = OPENBLAS
    saved = get()
    set_(3)
    try:
        yield 3
    finally:
        set_(saved)


def option1_model():
    """Constant-prediction model: verbalizer-1 logit 10, everything else 0."""
    model = make_model(zero=True)
    model.weights["head.b"][VERB1_ID] = 10.0
    return model


# ---------------------------------------------------------------------------
# scoring one pair


def test_score_pair_equal_logits_is_a_tie():
    model = make_model(zero=True)
    s = score_pairs(model, [PAIRS[0]])[0]
    assert s.p1 == 0.5 and s.p2 == 0.5
    assert s.prediction == "tie"
    assert s.source_id == PAIRS[0].id
    assert s.order == "original"


def test_score_pair_ten_logit_margin_logistic_closed_form():
    model = option1_model()
    s = score_pairs(model, [PAIRS[0]])[0]
    assert s.p1 == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-12)
    assert s.prediction == "1"


def test_score_pair_restricted_softmax_equals_full_softmax_ratio():
    model = make_model(seed=11)
    trials = score_pairs(model, [PAIRS[1]])
    for s, row in zip(trials, render_pair(PAIRS[1], TEMPLATE, model.tokenizer, SMALL.max_seq, HEAD_MLM)):
        logits = forward_mlm_batch(model.weights, model.config, [row.token_ids], [row.read])
        full = np.asarray(logits.data[0], dtype=np.float64)
        full = np.exp(full - full.max())
        full /= full.sum()
        ratio = full[VERB1_ID] / (full[VERB1_ID] + full[VERB2_ID])
        assert abs(s.p1 - ratio) < 1e-7
        assert abs(s.p1 + s.p2 - 1.0) < 1e-6


def test_score_pair_rejects_wrong_head():
    model = make_model()
    model.config.head_kind = "regression"
    with pytest.raises(ContractError, match="regression"):
        score_pairs(model, [PAIRS[0]])


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_score_pair_returns_both_orders_with_gold(objective):
    model = make_model(objective=objective, seed=3)
    trials = score_pairs(model, [PAIRS[2]])
    assert [t.order for t in trials] == list(ORDERS)
    assert [t.gold for t in trials] == ["1", "2"]
    assert all(t.source_id == PAIRS[2].id and t.domain == PAIRS[2].domain for t in trials)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_non_finite_option_logits_raise_divergence(objective):
    model = make_model(objective=objective, seed=3)
    model.weights["head.w"][...] = np.nan
    with pytest.raises(DivergenceError, match="non-finite"):
        score_pairs(model, [PAIRS[0]])
    with pytest.raises(DivergenceError, match="non-finite"):
        eval_dataset(model, PAIRS)


@pytest.mark.parametrize("objective,forwards", [("cloze", 1), ("pooled", 1), ("token-level", 2)])
def test_score_pair_forwards_per_pair(objective, forwards, monkeypatch):
    # One forward per row length: both orders of a pair have one length, and
    # a verbosity pair's two responses have two.
    pairs = synth_generate("verbosity", 4, seed=2)
    model = make_model(objective=objective, pairs=pairs, seed=3)
    calls = []
    for name in ("forward_mlm_batch", "forward_pooled_batch", "forward_token_batch"):
        original = getattr(clozerm.evaluation, name)
        monkeypatch.setattr(clozerm.evaluation, name, lambda *a, _f=original: calls.append(1) or _f(*a))
    for pair in pairs:
        score_pairs(model, [pair])
    assert len(calls) == forwards * len(pairs)


WORDS = st.lists(st.sampled_from(["2", "+", "3", "=", "5", "the", "answer", "is", "no"]), min_size=1, max_size=30)


# Both orders hold the same segments with the option slots swapped, so one
# forward can score them: their renders have equal length, and a pair that
# does not fit max_seq is skipped in both orders. The example truncates both
# options to fit.
@settings(max_examples=60, deadline=None)
@given(prompt=WORDS, a=WORDS, b=WORDS, max_seq=st.integers(4, 64))
@example(prompt=["2", "+", "3"], a=["the"] * 30, b=["no"] * 25, max_seq=40)
def test_both_orders_render_to_equal_length(prompt, a, b, max_seq):
    assume(a != b)
    pair = PreferencePair("p", " ".join(prompt), " ".join(a), " ".join(b), "reasoning")
    tokenizer = build_tokenizer(PAIRS)
    for head in (HEAD_MLM, HEAD_POOLED):
        try:
            lengths = [len(row.token_ids) for row in render_pair(pair, TEMPLATE, tokenizer, max_seq, head)]
        except SkipRecord:
            continue
        assert lengths[0] == lengths[1] <= max_seq


@pytest.mark.parametrize("objective", ["cloze", "pooled"])
def test_score_pair_rejects_orders_of_unequal_length(objective, monkeypatch):
    original = clozerm.evaluation.render_pair

    def longer_swapped(*args, **kwargs):
        rows = original(*args, **kwargs)
        rows[1].token_ids = rows[1].token_ids + [rows[1].token_ids[-1]]
        return rows

    monkeypatch.setattr(clozerm.evaluation, "render_pair", longer_swapped)
    with pytest.raises(ContractError, match="render to lengths"):
        score_pairs(make_model(objective=objective, seed=3), [PAIRS[0]])


def test_score_pair_token_head_swapped_trial_mirrors_original():
    model = make_model(objective="token-level", seed=5)
    original, swapped = score_pairs(model, [PAIRS[3]])
    assert original.p1 != original.p2
    assert (swapped.p1, swapped.p2) == (original.p2, original.p1)
    assert swapped.prediction == {"1": "2", "2": "1"}[original.prediction]


# ---------------------------------------------------------------------------
# grouped scoring


def per_pair_option_logits(model, pair):
    """Each pair scored alone: both orders in one 2-row forward (mlm,
    pooled), or one forward per response (token head)."""
    cfg = model.config
    rows = render_pair(pair, model.template, model.tokenizer, cfg.max_seq, cfg.head_kind)
    if cfg.head_kind == HEAD_TOKEN:
        chosen, rejected = (
            float(forward_token_batch(model.weights, cfg, [row.token_ids]).data[0, slice(*row.read)].astype(np.float64).mean())
            for row in rows
        )
        return [(chosen, rejected), (rejected, chosen)]
    ids = np.asarray([row.token_ids for row in rows])
    if cfg.head_kind == HEAD_MLM:
        logits = forward_mlm_batch(model.weights, cfg, ids, [row.read for row in rows]).data
        return [(float(row[VERB1_ID]), float(row[VERB2_ID])) for row in logits]
    return [(float(row[0]), float(row[1])) for row in forward_pooled_batch(model.weights, cfg, ids).data]


def row_lengths(model, pair):
    cfg = model.config
    return [len(row.token_ids) for row in render_pair(pair, model.template, model.tokenizer, cfg.max_seq, cfg.head_kind)]


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_grouped_scoring_matches_per_pair_scoring(objective):
    model = make_model(objective=objective, pairs=MIXED, seed=7)
    trials = score_pairs(model, MIXED)
    expected = [(pair, order, logits) for pair in MIXED
                for order, logits in zip(ORDERS, per_pair_option_logits(model, pair))]
    assert len(trials) == len(expected)
    for trial, (pair, order, (l1, l2)) in zip(trials, expected):
        p1 = 1.0 / (1.0 + math.exp(l2 - l1))
        assert (trial.source_id, trial.order) == (pair.id, order)
        assert abs(trial.p1 - p1) <= 1e-6
        assert trial.prediction == ("tie" if abs(2 * p1 - 1) < TIE_EPS else "1" if p1 > 0.5 else "2")


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_grouped_scoring_forwards_per_length_group(objective, monkeypatch):
    model = make_model(objective=objective, pairs=MIXED, seed=3)
    shapes = []
    for name in ("forward_mlm_batch", "forward_pooled_batch", "forward_token_batch"):
        original = getattr(clozerm.evaluation, name)
        monkeypatch.setattr(clozerm.evaluation, name,
                            lambda w, c, ids, *a, _f=original: shapes.append(ids.shape) or _f(w, c, ids, *a))
    cfg = model.config
    token_rows = [row.token_ids for pair in MIXED
                  for row in render_pair(pair, model.template, model.tokenizer, cfg.max_seq, cfg.head_kind)]
    lengths = [len(ids) for ids in token_rows]
    arithmetic = row_lengths(model, next(p for p in MIXED if p.domain == "reasoning"))[0]
    # Token budgets: the module's; eight arithmetic rows, which takes the
    # nine arithmetic pairs in two full chunks and a remainder; and one
    # token, below a single pair, which still takes one pair a forward.
    for tokens, arithmetic_chunks in ((TOKEN_BUDGET, None), (8 * arithmetic, [8, 8, 2]), (1, [2] * 9)):
        monkeypatch.setattr(clozerm.evaluation, "TOKEN_BUDGET", tokens)
        # Rows of one length in first-seen order, as many whole pairs' rows
        # a forward as fit the budget, and at least one pair's.
        expected = []
        for length in dict.fromkeys(lengths):
            idxs = [k for k, n in enumerate(lengths) if n == length]
            cap = 2 * max(1, tokens // (2 * length))
            expected += [idxs[lo : lo + cap] for lo in range(0, len(idxs), cap)]
        assert clozerm.evaluation._plan_chunks(token_rows) == expected
        # Threads take the planned forwards in no fixed order, so the
        # forwards that ran are compared as a multiset.
        shapes.clear()
        score_pairs(model, MIXED)
        assert sorted(shapes) == sorted((len(chunk), lengths[chunk[0]]) for chunk in expected)
        if arithmetic_chunks is not None:
            assert [len(chunk) for chunk in expected if lengths[chunk[0]] == arithmetic] == arithmetic_chunks


def test_grouped_scoring_keeps_input_order():
    model = make_model(pairs=MIXED, seed=3)
    trials = score_pairs(model, MIXED)
    assert [(t.source_id, t.order, t.gold) for t in trials] == [
        (pair.id, order, gold) for pair in MIXED for order, gold in zip(ORDERS, ("1", "2"))
    ]
    assert len({n for pair in MIXED for n in row_lengths(model, pair)}) > 2


def test_grouped_scoring_skips_unfit_pairs():
    giant = PreferencePair(id="big", prompt="x " * 200, chosen="1", rejected="2", domain="reasoning")
    model = make_model(pairs=MIXED, seed=3)
    with_giant = MIXED[:5] + [giant] + MIXED[5:]
    with pytest.raises(SkipRecord):
        score_pairs(model, with_giant)
    skipped = []
    assert score_pairs(model, with_giant, skipped) == score_pairs(model, MIXED)
    assert skipped == [giant]
    assert eval_dataset(model, with_giant).n_skipped == 1


def test_grouped_scoring_divergence_names_the_pair(monkeypatch):
    model = make_model(pairs=MIXED, seed=3)
    swapped = ORDERS.index(ORDER_SWAPPED)
    renders = [render_pair(p, TEMPLATE, model.tokenizer, SMALL.max_seq, HEAD_MLM)[swapped].token_ids for p in MIXED]
    # The last pair whose render is unique and shares its length, so its
    # forward scores other pairs too.
    at = max(i for i, ids in enumerate(renders)
             if renders.count(ids) == 1 and sum(len(r) == len(ids) for r in renders) > 2)
    original = clozerm.evaluation.forward_mlm_batch

    def poisoned(weights, config, ids, positions):
        logits = original(weights, config, ids, positions)
        logits.data[[list(row) == renders[at] for row in ids]] = np.nan
        return logits

    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", poisoned)
    with pytest.raises(DivergenceError, match=f"pair {MIXED[at].id!r}"):
        eval_dataset(model, MIXED)


# Scoring forwards take the block ops' temporaries from the thread's arena;
# training forwards record them and take fresh arrays. The logits must agree
# bit for bit, with no layer (no block op at all), one layer (the last
# layer's one-row query attention) and two, over one pair and over several.
@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("n_pairs", [1, 3])
def test_scoring_forward_bits_do_not_depend_on_a_recording_tape(n_layers, n_pairs):
    settings = ModelSettings(n_layers=n_layers, hidden=64, n_heads=8, ffn_mult=4, max_seq=48)
    model = make_model(pairs=MIXED, seed=1, settings=settings)
    arithmetic = [p for p in MIXED if p.domain == "reasoning"][:n_pairs]
    rows = [row for p in arithmetic for row in render_pair(p, TEMPLATE, model.tokenizer, settings.max_seq, HEAD_MLM)]
    ids = np.asarray([row.token_ids for row in rows])
    positions = [row.read for row in rows]
    plain = forward_mlm_batch(model.weights, model.config, ids, positions).data
    weights = {name: Tensor(w, requires_grad=True) for name, w in model.weights.items()}
    with Tape() as tape:
        recorded = forward_mlm_batch(weights, model.config, ids, positions).data
    assert len(tape) > 0 and np.array_equal(plain, recorded)


# Scoring calls that overlap from several threads run in turn and get the
# serial trials. Three threads on two cores with a short switch interval
# score the pairs in three different orders, four times each, so that calls
# often arrive while another runs. Each call saves the OpenBLAS count, holds
# it at one and restores it: a call let in beside another would save the
# held count and could leave it behind.
def test_concurrent_scoring_threads_get_the_serial_trials(blas_count):
    model = make_model(pairs=MIXED, seed=3)
    orders = [MIXED, MIXED[::-1], MIXED[7:] + MIXED[:7]]
    serial = [score_pairs(model, pairs) for pairs in orders]
    results = [None] * len(orders)

    def work(i):
        results[i] = [score_pairs(model, orders[i]) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[trials] * 4 for trials in serial]
    # Overlapping calls leave the OpenBLAS thread count as they found it.
    assert blas_threads() == blas_count


# Scoring holds OpenBLAS at one thread while its forwards run, on the caller
# and the helpers alike, and restores the count it found.
@needs_openblas
def test_scoring_holds_openblas_at_one_thread_and_restores_the_count(monkeypatch, blas_count):
    model = make_model(pairs=MIXED, seed=3)
    seen = []
    original = clozerm.evaluation.forward_mlm_batch
    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", lambda *a: seen.append(blas_threads()) or original(*a))
    eval_dataset(model, MIXED)
    assert seen and set(seen) == {1}
    assert blas_threads() == blas_count


# A forward that raises reaches the caller after the helper has stopped, the
# OpenBLAS count is restored, and the next call scores as before.
def test_a_raising_forward_reaches_the_caller_and_restores_the_count(monkeypatch, blas_count):
    model = make_model(pairs=MIXED, seed=3)
    serial = score_pairs(model, MIXED)
    calls = itertools.count()
    original = clozerm.evaluation.forward_mlm_batch

    def failing(*args):
        if next(calls) == 2:
            raise ShapeError("planted")
        return original(*args)

    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", failing)
    with pytest.raises(ShapeError, match="planted"):
        eval_dataset(model, MIXED)
    assert blas_threads() == blas_count
    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", original)
    assert score_pairs(model, MIXED) == serial


# The caller's first forward waits until another thread has run one: with
# two usable CPUs a helper scores beside the caller, under the caller's
# np.errstate, and the trials are the serial ones.
@needs_openblas
def test_a_helper_thread_scores_beside_the_caller(monkeypatch):
    model = make_model(pairs=MIXED, seed=3)
    caller = threading.get_ident()
    monkeypatch.setattr(clozerm.evaluation, "_usable_cpus", lambda: 1)
    serial = score_pairs(model, MIXED)
    helper_ran = threading.Event()
    errstates = []
    original = clozerm.evaluation.forward_mlm_batch

    def meet(*args):
        errstates.append(np.geterr())
        if threading.get_ident() == caller:
            assert helper_ran.wait(timeout=30), "no helper thread ran a forward"
        else:
            helper_ran.set()
        return original(*args)

    monkeypatch.setattr(clozerm.evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", meet)
    with np.errstate(all="ignore"):
        assert score_pairs(model, MIXED) == serial
        expected = np.geterr()
    assert errstates and all(state == expected for state in errstates)


# With one usable CPU every forward runs on the calling thread, and the
# trials are those of the threaded path.
def test_one_usable_cpu_scores_on_the_calling_thread(monkeypatch):
    model = make_model(pairs=MIXED, seed=3)
    threaded = score_pairs(model, MIXED)
    callers = set()
    original = clozerm.evaluation.forward_mlm_batch
    monkeypatch.setattr(clozerm.evaluation, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch",
                        lambda *a: callers.add(threading.get_ident()) or original(*a))
    assert score_pairs(model, MIXED) == threaded
    assert callers == {threading.get_ident()}


# A call's helper threads are joined before it returns: one is alive while
# the caller runs its forwards, none once the call is done.
@needs_openblas
def test_no_helper_thread_outlives_a_scoring_call(monkeypatch):
    def helpers_alive():
        return [t for t in threading.enumerate() if t.name.startswith("clozerm-score")]

    model = make_model(pairs=MIXED, seed=3)
    during = []
    original = clozerm.evaluation.forward_mlm_batch
    monkeypatch.setattr(clozerm.evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch",
                        lambda *a: during.append(len(helpers_alive())) or original(*a))
    score_pairs(model, MIXED)
    assert max(during) == 1
    assert helpers_alive() == []


# A child forked after the parent has scored, while another parent thread is
# inside a scoring call (its forwards held at a gate), scores at once and
# gets the parent's trials, where a child that kept the call lock that thread
# holds would wait on it for ever. The parent's call finishes with the same trials
# once the gate opens.
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
def test_a_child_forked_during_another_threads_scoring_call_scores(monkeypatch):
    model = make_model(pairs=MIXED, seed=3)
    trials = score_pairs(model, MIXED)
    parent = os.getpid()
    entered, gate = threading.Event(), threading.Event()
    original = clozerm.evaluation.forward_mlm_batch

    def gated(*args):
        if os.getpid() == parent:
            entered.set()
            assert gate.wait(timeout=120), "the gate was never opened"
        return original(*args)

    monkeypatch.setattr(clozerm.evaluation, "forward_mlm_batch", gated)
    blocked = []
    scorer = threading.Thread(target=lambda: blocked.append(score_pairs(model, MIXED)))
    scorer.start()
    try:
        assert entered.wait(timeout=30), "the scoring thread never ran a forward"
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=lambda: send.send(score_pairs(model, MIXED)))
        child.start()
        try:
            assert receive.poll(30), "the forked child did not finish scoring"
            assert receive.recv() == trials
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert child.exitcode == 0
    finally:
        gate.set()
        scorer.join(timeout=60)
    assert not scorer.is_alive() and blocked == [trials]


# ---------------------------------------------------------------------------
# eval_dataset forced cases


def test_constant_prediction_model_scores_exactly_half():
    report = eval_dataset(option1_model(), PAIRS)
    assert report.total_accuracy == 0.5
    assert report.position_bias == 1.0
    assert report.reasoning == 0.5
    assert report.n["reasoning"] == 2 * len(PAIRS)


def test_all_tie_model_scores_half_with_zero_bias():
    report = eval_dataset(make_model(zero=True), PAIRS)
    assert report.total_accuracy == 0.5
    assert report.position_bias == 0.0
    assert report.overall == 0.5


def test_eval_matches_brute_force_enumeration():
    # Re-enumerate every (pair, order) trial independently and count credits.
    model = make_model(seed=13)
    four = PAIRS[:4]
    report = eval_dataset(model, four)

    credits = []
    per_order = {"original": [], "swapped": []}
    for pair in four:
        for order in ("original", "swapped"):
            row = render_pair(pair, TEMPLATE, model.tokenizer, SMALL.max_seq, HEAD_MLM)[ORDERS.index(order)]
            logits = forward_mlm_batch(model.weights, model.config, [row.token_ids], [row.read]).data[0]
            p1 = 1.0 / (1.0 + math.exp(float(logits[VERB2_ID]) - float(logits[VERB1_ID])))
            gold = "1" if order == "original" else "2"
            credit = 0.5 if abs(2 * p1 - 1) < TIE_EPS else float(("1" if p1 > 0.5 else "2") == gold)
            credits.append(credit)
            per_order[order].append(credit)
    assert report.total_accuracy == sum(credits) / 8
    assert report.reasoning == sum(credits) / 8
    assert report.position_bias == abs(
        sum(per_order["original"]) / 4 - sum(per_order["swapped"]) / 4
    )
    assert report.n == {"chat": 0, "reasoning": 8, "safety": 0}


def test_hand_assigned_trials_match_enumeration_oracle():
    # 4 pairs x 2 orders with hand-picked probabilities covering correct,
    # wrong, and tie outcomes in two domains.
    def rec(pid, domain, order, p1, gold):
        p2 = 1.0 - p1
        pred = "tie" if abs(p1 - p2) < TIE_EPS else ("1" if p1 > p2 else "2")
        return TrialRecord(pid, domain, order, p1, p2, pred, gold)

    trials = [
        rec("a", "chat", "original", 0.9, "1"),       # correct
        rec("a", "chat", "swapped", 0.9, "2"),        # wrong
        rec("b", "chat", "original", 0.2, "1"),       # wrong
        rec("b", "chat", "swapped", 0.2, "2"),        # correct
        rec("c", "reasoning", "original", 0.5, "1"),  # tie
        rec("c", "reasoning", "swapped", 0.7, "2"),   # wrong
        rec("d", "reasoning", "original", 0.99, "1"), # correct
        rec("d", "reasoning", "swapped", 0.01, "2"),  # correct
    ]
    report = aggregate_trials(trials)
    assert report.chat == (1 + 0 + 0 + 1) / 4
    assert report.reasoning == (0.5 + 0 + 1 + 1) / 4
    assert report.safety is None
    assert report.overall == (0.5 + 0.625) / 2
    assert report.total_accuracy == (2 + 2.5) / 8
    assert report.position_bias == abs((1 + 0 + 0.5 + 1) / 4 - (0 + 1 + 0 + 1) / 4)
    assert report.n == {"chat": 4, "reasoning": 4, "safety": 0}


def test_aggregate_trials_rejects_unknown_domain_and_empty():
    with pytest.raises(ContractError):
        aggregate_trials([])
    bad = TrialRecord("x", "poetry", "original", 0.9, 0.1, "1", "1")
    with pytest.raises(ContractError, match="poetry"):
        aggregate_trials([bad])


def test_eval_dataset_pooled_and_token_heads():
    pooled = make_model(objective="pooled", zero=True)
    assert eval_dataset(pooled, PAIRS).total_accuracy == 0.5

    token = make_model(objective="token-level", zero=True)
    report = eval_dataset(token, PAIRS)
    assert report.total_accuracy == 0.5
    assert report.position_bias == 0.0


def test_eval_dataset_saturated_token_model_is_perfect():
    pair = PreferencePair(id="t", prompt="q", chosen="yes yes", rejected="no no", domain="chat")
    tokenizer = build_tokenizer([pair])
    settings = ModelSettings(n_layers=0, hidden=4, n_heads=1, ffn_mult=2, max_seq=32)
    config = model_config_for(settings, "token-level", len(tokenizer))
    weights = init_weights(config, seed=0)
    for name in weights:
        weights[name][:] = 0
    weights["final_ln.gain"][:] = 1
    template = ClozeTemplate(prefix=DOMAIN_PREFIXES["chat"])
    chosen, rejected = render_pair(pair, template, tokenizer, 32, HEAD_TOKEN)
    pattern = np.array([1.0, -1.0, 1.0, -1.0], dtype=np.float32)
    weights["tok_emb"][chosen.token_ids[chosen.read[0]]] = pattern
    weights["tok_emb"][rejected.token_ids[rejected.read[0]]] = -pattern
    weights["head.w"][:, 0] = 25 * pattern
    model = EvalModel(config=config, weights=weights, tokenizer=tokenizer, template=template)
    report = eval_dataset(model, [pair])
    assert report.total_accuracy == 1.0
    assert report.chat == 1.0


def test_eval_dataset_counts_skipped_pairs():
    giant = PreferencePair(
        id="big", prompt="x " * 200, chosen="1", rejected="2", domain="reasoning"
    )
    model = make_model(zero=True)
    report = eval_dataset(model, list(PAIRS) + [giant])
    assert report.n_skipped == 1
    assert report.n["reasoning"] == 2 * len(PAIRS)
    with pytest.raises(ContractError):
        eval_dataset(model, [giant])
    with pytest.raises(ContractError):
        eval_dataset(model, [])


def test_eval_dataset_reports_cost_from_count_params():
    model = make_model(seed=3)
    report = eval_dataset(model, PAIRS)
    cfg = model.config
    expected = flops_per_token(count_params(cfg), cfg.n_layers, cfg.hidden) / 1e9
    assert report.gflops_per_token == expected


def test_eval_model_from_checkpoint_restores_template_and_vocab():
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, seed=5, model=SMALL, prefix="Solve:")
    result = train(cfg, PAIRS)
    model = EvalModel.from_checkpoint(result.checkpoint)
    assert model.template.prefix == "Solve:"
    assert list(model.tokenizer.tokens) == list(result.checkpoint.extra["vocab"])
    report = eval_dataset(model, PAIRS)
    assert 0.0 <= report.total_accuracy <= 1.0

    stripped = Checkpoint(config=result.checkpoint.config, tensors=result.checkpoint.tensors, extra={})
    with pytest.raises(CheckpointError):
        EvalModel.from_checkpoint(stripped)


def with_extra(ckpt, **changes):
    """The checkpoint with its extra block updated; a None value drops the key."""
    extra = {**ckpt.extra, **changes}
    return Checkpoint(ckpt.config, ckpt.tensors, {k: v for k, v in extra.items() if v is not None})


def test_eval_model_rejects_missing_or_invalid_vocab():
    ckpt = train(TrainConfig(learning_rate=1e-3, batch_size=8, model=SMALL), PAIRS).checkpoint
    vocab = ckpt.extra["vocab"]
    for bad in (None, [], vocab[:-1], vocab[1:] + vocab[:1], vocab[:-1] + vocab[-2:-1], vocab[:-1] + [7]):
        with pytest.raises(CheckpointError):
            EvalModel.from_checkpoint(with_extra(ckpt, vocab=bad))


def test_eval_model_needs_template_block_unless_given_one():
    ckpt = train(TrainConfig(learning_rate=1e-3, batch_size=8, model=SMALL, prefix="Solve:"), PAIRS).checkpoint
    stripped = with_extra(ckpt, template=None)
    with pytest.raises(CheckpointError, match="template"):
        EvalModel.from_checkpoint(stripped)
    given = ClozeTemplate("Solve:")
    model = EvalModel.from_checkpoint(stripped, template=given)
    assert model.template == given
    assert report_to_json(eval_dataset(model, PAIRS)) == report_to_json(
        eval_dataset(EvalModel.from_checkpoint(ckpt), PAIRS)
    )


# ---------------------------------------------------------------------------
# aggregation arithmetic


def test_aggregate_chat_weighted_mean():
    assert aggregate_chat([(0.8, 10), (0.6, 10)]) == pytest.approx(0.7)
    assert aggregate_chat([(0.9, 100), (0.6, 50)]) == pytest.approx(0.8)
    assert aggregate_chat([(0.73, 7)]) == pytest.approx(0.73, abs=1e-12)
    with pytest.raises(ContractError):
        aggregate_chat([])
    with pytest.raises(ContractError):
        aggregate_chat([(0.5, 0)])


def test_overall_reproduces_published_table_rows():
    assert format_score(overall(78.8, 91.2, 89.3)) == "86.4"
    assert format_score(overall(71.0, 76.7, 79.2)) == "75.6"


def test_overall_idempotent_and_bounded():
    for x in (0.0, 0.37, 55.5, 100.0):
        assert overall(x, x, x) == pytest.approx(x)
    with pytest.raises(ContractError):
        overall(101.0, 50.0, 50.0)
    with pytest.raises(ContractError):
        overall(-0.1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# FLOPs cost model


def test_flops_formula_fixture():
    assert flops_per_token(10**6, 10, 100) == 2.6e6


def test_flops_vanishing_layer_term():
    n = 10**6
    res = flops_per_token(n, 1, 10**9)
    # the correction term 6N/1e9 is far below one float32 ulp of 2N
    assert abs(res - 2.0 * n) <= float(np.spacing(np.float32(2.0 * n)))
    assert flops_per_token(n, 0, 64) == 2.0 * n


def test_flops_monotonicity_randomized_grid():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(10**3, 10**9))
        layers = int(rng.integers(1, 64))
        hidden = int(rng.integers(1, 4096))
        base = flops_per_token(n, layers, hidden)
        assert flops_per_token(n + 1, layers, hidden) > base
        assert flops_per_token(n, layers + 1, hidden) > base
        assert flops_per_token(n, layers, hidden + 1) < base


def test_flops_validation():
    with pytest.raises(ContractError):
        flops_per_token(0, 1, 64)
    with pytest.raises(ContractError):
        flops_per_token(100, -1, 64)
    with pytest.raises(ContractError):
        flops_per_token(100, 1, 0)


def test_merged_adapter_model_costs_exactly_the_base_model():
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, seed=5, model=SMALL, prefix="Solve:")
    base = train(cfg, PAIRS)
    adapted = train(
        TrainConfig(
            learning_rate=1e-3, batch_size=8, seed=5, model=SMALL, prefix="Solve:",
            dora=DoraSettings(rank=2),
        ),
        PAIRS,
    )
    merged = merge_checkpoint(adapted.checkpoint)

    def n_params(ckpt):
        return sum(arr.size for arr in ckpt.tensors.values())

    assert n_params(merged) == n_params(base.checkpoint) == count_params(merged.config)
    lhs = flops_per_token(n_params(merged), merged.config.n_layers, merged.config.hidden)
    rhs = flops_per_token(n_params(base.checkpoint), SMALL.n_layers, SMALL.hidden)
    assert lhs == rhs


def test_format_gflops():
    assert format_gflops(2.6e6) == "0.00260"
    assert format_gflops(1.234e9) == "1.23"
    with pytest.raises(ContractError):
        format_gflops(0.0)


# ---------------------------------------------------------------------------
# tradeoff CSV


POINTS = [
    TradeoffPoint(label="large", gflops_per_token=0.8, accuracy=0.84),
    TradeoffPoint(label="tiny", gflops_per_token=0.0026, accuracy=0.76),
    TradeoffPoint(label="mid", gflops_per_token=0.052, accuracy=0.81),
]


def test_emit_tradeoff_sorted_header_and_roundtrip(tmp_path):
    path = tmp_path / "tradeoff.csv"
    emit_tradeoff(POINTS, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,gflops_per_token,accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["tiny", "mid", "large"]
    parsed = parse_tradeoff(path)
    assert parsed == sorted(POINTS, key=lambda p: p.gflops_per_token)
    for got, want in zip(parsed, sorted(POINTS, key=lambda p: p.gflops_per_token)):
        assert abs(got.gflops_per_token - want.gflops_per_token) < 1e-9
        assert abs(got.accuracy - want.accuracy) < 1e-9


def test_emit_tradeoff_singleton_and_determinism(tmp_path):
    one, two = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_tradeoff(POINTS[:1], one)
    assert len(one.read_text().splitlines()) == 2
    emit_tradeoff(POINTS, two)
    emit_tradeoff(POINTS, one)
    assert one.read_bytes() == two.read_bytes()


def test_emit_tradeoff_validation(tmp_path):
    with pytest.raises(ContractError):
        emit_tradeoff([], tmp_path / "x.csv")
    with pytest.raises(ContractError, match="label"):
        emit_tradeoff([TradeoffPoint("a,b", 0.1, 0.5)], tmp_path / "x.csv")
    with pytest.raises(ContractError):
        emit_tradeoff([TradeoffPoint("a", 0.0, 0.5)], tmp_path / "x.csv")
    for gflops, accuracy in ((math.nan, 0.5), (math.inf, 0.5), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ContractError, match="finite"):
            emit_tradeoff([TradeoffPoint("a", gflops, accuracy)], tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(OSError):
        emit_tradeoff(POINTS, tmp_path)


def test_parse_tradeoff_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("step,lr\n0,0.1\n")
    with pytest.raises(ContractError):
        parse_tradeoff(path)
    header = "label,gflops_per_token,accuracy\n"
    for row in ("tiny,0.1", "tiny,0.1,0.5,1", "tiny,fast,0.5", "tiny,0.1,", "tiny,nan,0.5", "tiny,0.1,inf", ",0.1,0.5"):
        path.write_text(header + "ok,0.2,0.7\n\n" + row + "\n")
        with pytest.raises(ContractError, match=f"line 4 \\({row!r}\\)"):
            parse_tradeoff(path)


# ---------------------------------------------------------------------------
# compare_objectives


def compare_fixture():
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, seed=4, model=SMALL, prefix="Solve:")
    pairs = synth_generate("arithmetic", 16, seed=6)
    return cfg, pairs


def test_compare_objectives_three_rows_matching_budgets():
    cfg, pairs = compare_fixture()
    cmp = compare_objectives(pairs, cfg)
    assert [r.objective for r in cmp.rows] == list(OBJECTIVES)
    for r in cmp.rows:
        assert r.n_train == cmp.rows[0].n_train
        assert r.n_heldout == cmp.rows[0].n_heldout
        assert r.epochs == cfg.epochs
        assert r.batch_size == cfg.batch_size
        assert r.learning_rate == cfg.learning_rate
        assert r.total_steps == cmp.rows[0].total_steps
        assert 0.0 <= r.heldout_accuracy <= 1.0


def test_compare_objectives_accuracies_cross_check():
    cfg, pairs = compare_fixture()
    cmp = compare_objectives(pairs, cfg, heldout_fraction=0.25)
    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 2]))
    perm = split_rng.permutation(len(pairs))
    n_held = round(0.25 * len(pairs))
    held = [pairs[i] for i in perm[:n_held]]
    for row in cmp.rows:
        model = EvalModel.from_checkpoint(cmp.checkpoints[row.objective])
        report = eval_dataset(model, held)
        assert report.total_accuracy == row.heldout_accuracy


def test_compare_objectives_deterministic():
    cfg, pairs = compare_fixture()
    assert compare_objectives(pairs, cfg).rows == compare_objectives(pairs, cfg).rows


def test_compare_objectives_validation():
    cfg, pairs = compare_fixture()
    with pytest.raises(ConfigError):
        compare_objectives(pairs[:1], cfg)
    with pytest.raises(ConfigError):
        compare_objectives(pairs, cfg, heldout_fraction=1.0)


# ---------------------------------------------------------------------------
# report serialization


def test_report_json_roundtrip():
    report = eval_dataset(make_model(zero=True), PAIRS)
    payload = json.loads(report_to_json(report))
    assert payload["overall"] == report.overall
    assert payload["total_accuracy"] == 0.5
    assert payload["n"]["reasoning"] == 2 * len(PAIRS)
    assert report_to_json(report).endswith("\n")


def test_report_table_marks_absent_domains():
    report = eval_dataset(make_model(zero=True), PAIRS)
    table = report_to_table(report)
    lines = table.splitlines()
    assert lines[0].startswith("category")
    assert any(line.startswith("chat") and "-" in line for line in lines)
    assert any(line.startswith("reasoning") and "0.5000" in line for line in lines)
    assert "GFLOPs/token" in table


def test_comparison_serialization():
    cfg, pairs = compare_fixture()
    cmp = compare_objectives(pairs, cfg)
    payload = json.loads(comparison_to_json(cmp))
    assert len(payload["rows"]) == 3
    table = comparison_to_table(cmp)
    assert table.splitlines()[0].startswith("objective")
    assert len(table.splitlines()) == 4
