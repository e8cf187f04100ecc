"""Pairwise preference scoring, category aggregation, the FLOPs cost
model, accuracy/cost tradeoff emission, and the three-objective
comparison report.

Every pair is evaluated in BOTH option orders, each order counting as one
trial; a trial is correct when the prediction names whichever option slot
holds the chosen response, and ties (|p1 - p2| < 1e-9) count 0.5. A
constant-prediction model therefore lands at exactly 0.5, and
position bias = |acc_original - acc_swapped| is reported first class.
"""

import contextvars
import ctypes
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .checkpoint import Checkpoint, stored_tokenizer
from .data import (
    DOMAINS,
    ORDERS,
    ORDER_ORIGINAL,
    ClozeTemplate,
    plan_chunks,
    render_pairs,
)
from .errors import ConfigError, ContractError, DivergenceError
from .model import (
    HEAD_MLM,
    HEAD_POOLED,
    HEAD_TOKEN,
    count_params,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
)
from .peft import merge_checkpoint
from .tokenizer import VERB1_ID, VERB2_ID, Tokenizer

TIE_EPS = 1e-9


@dataclass
class TrialRecord:
    """One order of one pair: the scored unit accuracy is counted over."""

    source_id: str
    domain: str
    order: str
    p1: float
    p2: float
    prediction: str
    gold: str  # "1" | "2": which option slot holds the chosen response


@dataclass
class EvalReport:
    chat: "float | None"
    reasoning: "float | None"
    safety: "float | None"
    overall: float
    position_bias: float
    n: dict
    gflops_per_token: float
    total_accuracy: float
    n_skipped: int = 0


@dataclass
class TradeoffPoint:
    label: str
    gflops_per_token: float
    accuracy: float


@dataclass
class EvalModel:
    """A merged, inference-only model bundle."""

    config: object
    weights: dict
    tokenizer: Tokenizer
    template: ClozeTemplate

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint, template: "ClozeTemplate | None" = None) -> "EvalModel":
        """The merged model with its stored vocabulary and template block;
        an explicit template replaces the block."""
        merged = merge_checkpoint(ckpt)
        return cls(
            config=merged.config,
            weights=merged.tensors,
            tokenizer=stored_tokenizer(merged),
            template=template or ClozeTemplate.from_block(merged.extra.get("template")),
        )


def _two_way(l1: float, l2: float):
    """Two-way softmax in float64 with max subtraction."""
    m = l1 if l1 >= l2 else l2
    e1 = math.exp(l1 - m)
    e2 = math.exp(l2 - m)
    z = e1 + e2
    return e1 / z, e2 / z


def _predict(p1: float, p2: float) -> str:
    if abs(p1 - p2) < TIE_EPS:
        return "tie"
    return "1" if p1 > p2 else "2"


def _span_mean(scores: np.ndarray, span) -> float:
    start, end = span
    if end <= start:
        raise ContractError("empty response span")
    return float(np.asarray(scores, dtype=np.float64)[start:end].mean())


def _score_rows(model: EvalModel, rows) -> list:
    """One forward over equal-length rows: per row the two verbalizer
    logits at the mask (mlm), the two class logits (pooled), or the mean
    score over the response span (token head)."""
    cfg = model.config
    ids = np.asarray([row.token_ids for row in rows], dtype=np.int64)
    if cfg.head_kind == HEAD_MLM:
        logits = forward_mlm_batch(model.weights, cfg, ids, [row.read for row in rows]).data
        return [(float(row[VERB1_ID]), float(row[VERB2_ID])) for row in logits]
    if cfg.head_kind == HEAD_POOLED:
        logits = forward_pooled_batch(model.weights, cfg, ids).data
        return [(float(row[0]), float(row[1])) for row in logits]
    scores = forward_token_batch(model.weights, cfg, ids).data
    return [_span_mean(scores_row, row.read) for scores_row, row in zip(scores, rows)]


@functools.cache
def _openblas():
    """(get, set) of the loaded OpenBLAS's thread count, or None when no
    mapped OpenBLAS exports them (an MKL or Accelerate build, or no
    /proc/self/maps to find it by)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # Plain builds, 64-bit-integer builds and NumPy's scipy-openblas wheels.
        for prefix, suffix in (("openblas", ""), ("openblas", "64_"),
                               ("scipy_openblas", "64_"), ("scipy_openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


@contextmanager
def _one_blas_thread(blas):
    """Hold OpenBLAS at one thread, then restore the count it had. With
    blas None (no settable OpenBLAS) nothing is held."""
    if blas is None:
        yield
        return
    get, set_ = blas
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


# Held for the whole of a scoring call, so overlapping calls run in turn.
_call_lock = threading.Lock()


def _fresh_lock_in_child():
    # A forked child has only the forking thread: a lock that another parent
    # thread held inside a scoring call would never be released there.
    global _call_lock
    _call_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lock_in_child)


def _score_chunks(model: EvalModel, rows, plan) -> list:
    """Each row's _score_rows value, the plan's forwards taken by the
    calling thread and this call's helper threads from one shared
    iterator."""
    values = [None] * len(rows)
    chunks = iter(plan)
    take = threading.Lock()

    def drain():
        while True:
            with take:
                chunk = next(chunks, None)
            if chunk is None:
                return
            for k, value in zip(chunk, _score_rows(model, [rows[k] for k in chunk])):
                values[k] = value

    blas = _openblas()
    n_threads = 1 if blas is None else min(_usable_cpus(), len(plan))
    # The executor starts a thread only for submitted work, and leaving it
    # joins the helpers once their current forward is done.
    with (_call_lock, _one_blas_thread(blas),
          ThreadPoolExecutor(max(n_threads - 1, 1), thread_name_prefix="clozerm-score") as pool):
        # Each helper runs in its own copy of the caller's context, which
        # carries NumPy's floating-point error state (np.errstate).
        helpers = [pool.submit(contextvars.copy_context().run, drain) for _ in range(n_threads - 1)]
        try:
            drain()
        except BaseException:
            with take:
                for _ in chunks:  # the helpers stop after their current forward
                    pass
            raise
        for helper in helpers:
            helper.result()
    return values


def score_pairs(model: EvalModel, pairs, skipped=None) -> list:
    """The two TrialRecords of each pair, in input order and ORDERS order,
    rendered with the model's template.

    Each head reduces an order to one logit per option slot: mlm takes the
    full-vocab logits at the mask for the two verbalizer tokens, pooled its
    two class logits (class 0 means Option 1 is the better response), and
    the token head the mean span scores of the chosen and rejected
    responses, swapped for the second order. A two-way softmax over those
    logits gives p1 and p2. A non-finite option logit raises
    DivergenceError naming the pair instead of being scored.

    Rows of one length are stacked into forwards of as many whole pairs'
    rows as fit data.TOKEN_BUDGET tokens (at least one pair), lengths in
    first-seen order, as data.plan_chunks plans them. The calling thread
    and up to one helper thread per further usable CPU take those
    forwards from one shared plan, and each forward's values go to their
    rows' indices, so the trials are those of serial scoring bit for bit. The helpers are started for the call and
    joined before it returns, so only the calling thread's arena (see
    tensor.py) outlives it; calls that overlap from several threads run in
    turn. For the length of the call the loaded OpenBLAS is held at one
    thread, then its count is restored; scoring stays on the calling
    thread alone when the process may use one CPU, the plan has one
    forward, or no OpenBLAS thread count can be set. The pairs are
    rendered by data.render_pairs first: a pair whose options cannot fit
    max_seq raises SkipRecord, or, given a skipped list, is appended to it
    and left out.
    """
    cfg = model.config
    pairs = list(pairs)
    skips = None if skipped is None else []
    rendered = render_pairs(pairs, model.template, model.tokenizer, cfg.max_seq, cfg.head_kind, skips)
    if skips:
        skipped.extend(pair for pair, rows in zip(pairs, rendered) if rows is None)
    return _score_rendered(model, pairs, rendered)


def _score_rendered(model: EvalModel, pairs, rendered) -> list:
    """score_pairs' trials of the pairs whose render_pairs rows, rendered
    with the model's template, tokenizer, max_seq and head, are not None."""
    cfg = model.config
    kept = [(pair, rows) for pair, rows in zip(pairs, rendered) if rows is not None]
    for pair, pair_rows in kept:
        lengths = [len(row.token_ids) for row in pair_rows]
        if cfg.head_kind != HEAD_TOKEN and lengths[0] != lengths[1]:
            raise ContractError(f"the two orders of pair {pair.id!r} render to lengths {lengths}")
    rows = [row for _, pair_rows in kept for row in pair_rows]
    values = _score_chunks(model, rows, plan_chunks([row.token_ids for row in rows], unit=2))
    trials = []
    for (pair, _), first, second in zip(kept, values[::2], values[1::2]):
        option_logits = [(first, second), (second, first)] if cfg.head_kind == HEAD_TOKEN else [first, second]
        if not all(math.isfinite(v) for logits in option_logits for v in logits):
            raise DivergenceError(f"non-finite option logits {option_logits} for pair {pair.id!r}")
        for order, (l1, l2) in zip(ORDERS, option_logits):
            p1, p2 = _two_way(l1, l2)
            gold = "1" if order == ORDER_ORIGINAL else "2"
            trials.append(TrialRecord(pair.id, pair.domain, order, p1, p2, _predict(p1, p2), gold))
    return trials


def _credit(trial: TrialRecord) -> float:
    if trial.prediction == "tie":
        return 0.5
    return 1.0 if trial.prediction == trial.gold else 0.0


def aggregate_trials(trials, gflops_per_token: float = 0.0, n_skipped: int = 0) -> EvalReport:
    """Fold trial records into the report; overall is overall() of the
    three categories, an absent one left out."""
    trials = list(trials)
    if not trials:
        raise ContractError("no trials to aggregate")
    by_domain = {d: [] for d in DOMAINS}
    by_order = {}
    credits = []
    for t in trials:
        if t.domain not in by_domain:
            raise ContractError(f"unknown domain {t.domain!r}")
        c = _credit(t)
        by_domain[t.domain].append(c)
        by_order.setdefault(t.order, []).append(c)
        credits.append(c)
    acc = {
        d: (sum(v) / len(v) if v else None) for d, v in by_domain.items()
    }
    order_acc = {o: sum(v) / len(v) for o, v in by_order.items()}
    if len(order_acc) == 2:
        a, b = sorted(order_acc)
        bias = abs(order_acc[a] - order_acc[b])
    else:
        bias = 0.0
    return EvalReport(
        chat=acc["chat"],
        reasoning=acc["reasoning"],
        safety=acc["safety"],
        overall=overall(acc["chat"], acc["reasoning"], acc["safety"]),
        position_bias=bias,
        n={d: len(v) for d, v in by_domain.items()},
        gflops_per_token=gflops_per_token,
        total_accuracy=sum(credits) / len(credits),
        n_skipped=n_skipped,
    )


def eval_dataset(model: EvalModel, pairs) -> EvalReport:
    """Score every pair in both orders and aggregate. Pairs whose options
    cannot fit the model's max_seq are skipped and counted."""
    pairs = list(pairs)
    if not pairs:
        raise ContractError("evaluation dataset is empty")
    skipped = []
    trials = score_pairs(model, pairs, skipped)
    if not trials:
        raise ContractError("every evaluation pair was skipped")
    cfg = model.config
    gflops = flops_per_token(count_params(cfg), cfg.n_layers, cfg.hidden) / 1e9
    return aggregate_trials(trials, gflops_per_token=gflops, n_skipped=len(skipped))


def aggregate_chat(sub_scores) -> float:
    """Weighted mean over (accuracy, n) sub-splits."""
    sub_scores = list(sub_scores)
    if not sub_scores:
        raise ContractError("aggregate_chat needs at least one sub-score")
    total_n = 0
    total = 0.0
    for acc, n in sub_scores:
        if n < 1:
            raise ContractError("every sub-score needs n >= 1")
        total += acc * n
        total_n += n
    return total / total_n


def overall(chat, reasoning, safety) -> float:
    """Unweighted mean of the category accuracies that are not None, of
    which there must be at least one; accepts either fractions in [0, 1] or
    percentage points in [0, 100]."""
    present = [v for v in (chat, reasoning, safety) if v is not None]
    if not present:
        raise ContractError("overall needs at least one category accuracy")
    for v in present:
        if not 0.0 <= v <= 100.0:
            raise ContractError(f"accuracy {v} outside [0, 100]")
    return sum(present) / len(present)


def format_score(value: float) -> str:
    """One-decimal display convention for table scores."""
    return f"{value:.1f}"


def flops_per_token(n_params: int, n_layers: int, hidden: int) -> float:
    """2N + 6N*L/H in exact float64 arithmetic.

    n_layers 0 is allowed and degenerates to the 2N embedding-only cost.
    """
    if n_params <= 0:
        raise ContractError("n_params must be positive")
    if hidden <= 0:
        raise ContractError("hidden must be positive")
    if n_layers < 0:
        raise ContractError("n_layers must be non-negative")
    return 2.0 * n_params + 6.0 * n_params * n_layers / hidden


def format_gflops(flops: float) -> str:
    """GFLOPs with 3 significant digits, trailing zeros kept
    (2.6e6 FLOPs renders as '0.00260')."""
    g = flops / 1e9
    if g <= 0:
        raise ContractError("flops must be positive")
    exponent = math.floor(math.log10(g))
    decimals = max(0, 2 - exponent)
    return f"{round(g, 2 - exponent):.{decimals}f}"


_TRADEOFF_HEADER = "label,gflops_per_token,accuracy"


def _check_point(p: TradeoffPoint) -> None:
    if not p.label or "," in p.label or "\n" in p.label:
        raise ContractError(f"bad tradeoff label {p.label!r}")
    if not (math.isfinite(p.gflops_per_token) and p.gflops_per_token > 0):
        raise ContractError(f"gflops_per_token must be finite and positive for {p.label!r}")
    if not math.isfinite(p.accuracy):
        raise ContractError(f"accuracy must be finite for {p.label!r}")


def emit_tradeoff(points, path) -> None:
    """CSV of (label, gflops/token, accuracy) sorted by cost ascending."""
    from .fileio import atomic_write_text

    points = list(points)
    if not points:
        raise ContractError("emit_tradeoff needs at least one point")
    for p in points:
        _check_point(p)
    rows = sorted(points, key=lambda p: p.gflops_per_token)
    lines = [_TRADEOFF_HEADER]
    for p in rows:
        lines.append(f"{p.label},{p.gflops_per_token!r},{p.accuracy!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def parse_tradeoff(path):
    """The points of a tradeoff CSV; a row that emit_tradeoff would not
    write raises ContractError naming its line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, line.rstrip("\n")) for n, line in enumerate(fh, 1) if line.strip()]
    if not lines or lines[0][1] != _TRADEOFF_HEADER:
        raise ContractError(f"not a tradeoff CSV: {path}")
    points = []
    for n, line in lines[1:]:
        try:
            label, gflops, acc = line.split(",")
            point = TradeoffPoint(label=label, gflops_per_token=float(gflops), accuracy=float(acc))
            _check_point(point)
        except (ValueError, ContractError) as exc:
            raise ContractError(f"{path} line {n} ({line!r}): {exc}") from None
        points.append(point)
    return points


@dataclass
class ObjectiveRow:
    objective: str
    heldout_accuracy: float
    n_train: int
    n_heldout: int
    epochs: int
    batch_size: int
    total_steps: int
    learning_rate: float


@dataclass
class ObjectiveComparison:
    rows: list
    checkpoints: dict  # objective -> Checkpoint, for independent re-scoring


def compare_objectives(pairs, base_config, heldout_fraction: float = 0.2) -> ObjectiveComparison:
    """Train cloze, pooled, and token-level models under the same budget
    and seed on the same split, and report held-out accuracies side by
    side. No ordering judgment is made."""
    from .training import OBJECTIVES, heldout_split, train

    pairs = list(pairs)
    if len(pairs) < 2:
        raise ConfigError("compare_objectives needs at least 2 pairs to split")
    if not 0 < heldout_fraction < 1:
        raise ConfigError("heldout_fraction must be in (0, 1)")
    train_pairs, held_pairs = heldout_split(pairs, base_config.seed, 2, heldout_fraction)

    rows = []
    checkpoints = {}
    for objective in OBJECTIVES:
        cfg = replace(base_config, objective=objective)
        result = train(cfg, train_pairs)
        model = EvalModel.from_checkpoint(result.checkpoint)
        report = eval_dataset(model, held_pairs)
        rows.append(
            ObjectiveRow(
                objective=objective,
                heldout_accuracy=report.total_accuracy,
                n_train=len(train_pairs),
                n_heldout=len(held_pairs),
                epochs=cfg.epochs,
                batch_size=cfg.batch_size,
                total_steps=len(result.trace),
                learning_rate=cfg.learning_rate,
            )
        )
        checkpoints[objective] = result.checkpoint
    return ObjectiveComparison(rows=rows, checkpoints=checkpoints)


def report_to_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def report_to_table(report: EvalReport) -> str:
    lines = [f"{'category':<12}{'accuracy':>10}{'trials':>8}"]
    for name, acc in (("chat", report.chat), ("reasoning", report.reasoning), ("safety", report.safety)):
        acc_s = "-" if acc is None else f"{acc:.4f}"
        lines.append(f"{name:<12}{acc_s:>10}{report.n.get(name, 0):>8}")
    lines.append(f"{'overall':<12}{report.overall:>10.4f}")
    lines.append(f"{'pos. bias':<12}{report.position_bias:>10.4f}")
    lines.append(f"{'cost':<12}{format_gflops(report.gflops_per_token * 1e9):>10} GFLOPs/token")
    if report.n_skipped:
        lines.append(f"{'skipped':<12}{report.n_skipped:>10}")
    return "\n".join(lines) + "\n"


def comparison_to_json(cmp: ObjectiveComparison) -> str:
    # Rows only: the checkpoints are kept for re-scoring, not reported.
    payload = {"rows": [asdict(r) for r in cmp.rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def comparison_to_table(cmp: ObjectiveComparison) -> str:
    lines = [f"{'objective':<14}{'heldout_acc':>12}{'steps':>8}{'batch':>7}{'epochs':>8}{'lr':>12}"]
    for r in cmp.rows:
        lines.append(
            f"{r.objective:<14}{r.heldout_accuracy:>12.4f}{r.total_steps:>8}"
            f"{r.batch_size:>7}{r.epochs:>8}{r.learning_rate:>12.2e}"
        )
    return "\n".join(lines) + "\n"
