"""Outside-in layer tracing for the benchmark.

The tracer wraps public names where the calling module looks them up
(``clozerm.model.gelu`` is the ``gelu`` that the encoder calls), records
one span per call, and restores every original name on ``remove``. It
never edits the package. A name that no longer exists is listed in
``absent`` instead of failing the run, so a later refactor that moves a
function shows up as a missing metric rather than a crash.

Spans are kept in memory as tuples and turned into metrics after the run:
``(kind, start, end, parent, scope_id, value)``. ``parent`` is the index of
the enclosing span (or -1), ``scope_id`` indexes ``scopes`` (which phase of
the workload was running: set-up, a measured ``train()`` call or a measured
``eval_dataset()`` call), and ``value`` is an optional per-call count
(sequences in a forward, tape length at backward, tensors in an optimizer
step).
"""

import bisect
import contextlib
import functools
import importlib
import math
import os
import time

SCOPE_SETUP = "setup"
SCOPE_TRAIN = "train"
SCOPE_EVAL = "eval"

# Tape ops whose forward time is reported one by one.
REPORTED_OPS = (
    "matmul", "bmm", "gelu", "layer_norm", "softmax", "gather_rows",
    "add", "mul", "reshape", "transpose", "cross_entropy_rows",
)
# The tape ops each calling module looks up on the workloads' paths: the
# reported ones plus loss sums and the DoRA row norm, so that the self time
# of their callers is exact. ``clozerm.tensor`` itself is left alone so that
# ops built from other ops are not counted twice.
OP_CALLERS = {
    "clozerm.model": ("matmul", "bmm", "gelu", "layer_norm", "softmax", "gather_rows",
                      "add", "mul", "reshape", "transpose"),
    "clozerm.training": ("gather_rows", "add", "mul", "reshape", "cross_entropy_rows", "tsum"),
    "clozerm.peft": ("matmul", "add", "mul", "reshape", "transpose", "tsum", "div", "sqrt",
                     "clamp_min"),
}
ALL_OPS = tuple(sorted({op for ops in OP_CALLERS.values() for op in ops}))

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rows(args, kwargs, result):
    ids = args[2]
    return ids.shape[0] if getattr(ids, "ndim", 1) == 2 else 1


def _tape_len(args, kwargs, result):
    return len(args[0])


def _opt_sizes(args, kwargs, result):
    params = args[0]
    return len(params), sum(p.size for p in params.values())


def _adapters(args, kwargs, result):
    return len(args[1])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def hook_table():
    """(owner, attribute, span kind, per-call count) for every wrapped name,
    each a name its caller looks up today. The owner is a module path, or
    ``module:Class`` for a method."""
    table = [(module, op, "tensor." + op, None) for module, ops in OP_CALLERS.items() for op in ops]
    table += [
        ("clozerm.training", "backward", "tensor.backward", _tape_len),
        ("clozerm.training", "forward_mlm", "model.forward", _rows),
        ("clozerm.training", "forward_mlm_batch", "model.forward", _rows),
        ("clozerm.evaluation", "forward_mlm", "model.forward", _rows),
    ]
    for module in ("clozerm.training", "clozerm.evaluation"):
        table.append((module, "build_cloze", "data.render", None))
        table.append((module, "merge_checkpoint", "peft.merge", None))
    table += [
        ("clozerm.training", "train", "training.train", None),
        ("clozerm.training", "adamw_step", "training.adamw", _opt_sizes),
        ("clozerm.training", "adapted_forward_weights", "peft.adapt", _adapters),
        ("clozerm.training", "build_tokenizer", "data.build_tokenizer", None),
        ("clozerm.data", "build_tokenizer", "data.build_tokenizer", None),
        ("clozerm.data", "synth_generate", "data.synth", None),
        ("clozerm.tokenizer:Tokenizer", "encode", "tokenizer.encode", None),
        ("clozerm.evaluation", "eval_dataset", "evaluation.eval_dataset", None),
        ("clozerm.evaluation", "score_pair", "evaluation.score", None),
        ("clozerm.evaluation", "aggregate_trials", "evaluation.aggregate", None),
        ("clozerm.checkpoint", "save_checkpoint", "checkpoint.save", _file_bytes),
        ("clozerm.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ]
    return table


def _resolve(owner):
    module_path, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_path)
    except ImportError:
        return None
    if class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Tracer:
    """Records spans around wrapped names; single-threaded by design, like
    the training loop and the evaluator it observes."""

    def __init__(self):
        self.spans = []
        self.scopes = [SCOPE_SETUP]
        self.scope_id = 0
        self.absent = []
        self.missing = []
        self._stack = []
        self._installed = []

    def install(self, table=None):
        """Wrap every name of the table that exists now. Each name that does
        not is listed in ``missing``; a span kind none of whose names exist
        is listed in ``absent``."""
        found = {}
        for owner, attr, kind, count in table if table is not None else hook_table():
            target = _resolve(owner)
            original = getattr(target, attr, None) if target is not None else None
            found.setdefault(kind, False)
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            found[kind] = True
            setattr(target, attr, self._wrap(original, kind, count))
            self._installed.append((target, attr, original))
        self.absent = sorted(k for k, ok in found.items() if not ok)

    def remove(self):
        """Restore every wrapped name, newest first."""
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    @contextlib.contextmanager
    def scope(self, name):
        """Attribute the spans opened inside the block to a workload phase."""
        previous = self.scope_id
        self.scopes.append(name)
        self.scope_id = len(self.scopes) - 1
        try:
            yield
        finally:
            self.scope_id = previous

    def _wrap(self, fn, kind, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            scope_id = self.scope_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (kind, start, end, parent, scope_id, None)
            if count is not None:
                spans[index] = (kind, start, end, parent, scope_id, count(args, kwargs, result))
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer):
    """Install the tracer's wrappers for the duration of the block; always
    remove them, even when the block raises."""
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.remove()


# ---------------------------------------------------------------- statistics


def self_time(start, end, children) -> float:
    """Length of [start, end] not covered by any child interval. Children
    are clipped to the span and may overlap or nest; overlaps count once."""
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


def tail_percentile(n: int) -> float:
    """The highest percentile of TAIL_LADDER that leaves at least MIN_BEYOND
    of n samples above it (nearest-rank), or 100 (the maximum) when none
    does."""
    for p in TAIL_LADDER:
        rank = math.ceil(p * n / 100.0)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p
    return 100.0


def summarize(samples):
    """(median, tail, n) of a list of numbers; tail follows tail_percentile.
    An empty list gives (0.0, 0.0, 0)."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(samples)
    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0
    p = tail_percentile(n)
    tail = ordered[-1] if p >= 100.0 else ordered[math.ceil(p * n / 100.0) - 1]
    return median, tail, n


# ------------------------------------------------------------ layer metrics

_MS = 1e3
_US = 1e6


def layer_metrics(tracer, eval_pairs: int):
    """Per-layer metrics from a traced pass, and the names of those whose
    span kinds were absent.

    Scopes: tape ops come from the workload's primary phase (the measured
    ``train()`` call when there is one, else the measured evaluation);
    backward, optimizer and adapter metrics from measured training; model,
    rendering, tokenizer and evaluation metrics from measured evaluation;
    tokenizer builds from measured training when it builds one, else, like
    synthesis, merges and checkpoint I/O, from every phase, set-up
    included. Counts are per unit: per optimizer step in training,
    per eval pair in evaluation.
    """
    spans = tracer.spans
    scope_of = [tracer.scopes[s[4]] for s in spans]
    by = {}
    children = {}
    for i, s in enumerate(spans):
        by.setdefault((s[0], scope_of[i]), []).append(i)
        by.setdefault((s[0], None), []).append(i)
        children.setdefault(s[3], []).append(i)

    def pick(kind, scope):
        return by.get((kind, scope), [])

    def durations(kind, scope, scale):
        return [(spans[i][2] - spans[i][1]) * scale for i in pick(kind, scope)]

    def own(i, scale):
        s = spans[i]
        kids = [(spans[j][1], spans[j][2]) for j in children.get(i, ())]
        return self_time(s[1], s[2], kids) * scale

    def values(kind, scope):
        return [spans[i][5] for i in pick(kind, scope)]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    needs = {}

    def timing(name, samples, *kinds):
        median, tail, n = summarize(samples)
        for suffix, v in (("median", median), ("tail", tail), ("n", n)):
            out[f"{name}.{suffix}"] = v
            needs[f"{name}.{suffix}"] = kinds

    def count(name, value, *kinds):
        out[name] = value
        needs[name] = kinds

    adamw = pick("training.adamw", SCOPE_TRAIN)
    primary = SCOPE_TRAIN if adamw else SCOPE_EVAL
    units = len(adamw) if adamw else eval_pairs

    for op in REPORTED_OPS:
        timing(f"tensor.fwd_ms.{op}", durations("tensor." + op, primary, _MS), "tensor." + op)
    count("tensor.fwd_calls", ratio(sum(len(pick("tensor." + op, primary)) for op in ALL_OPS), units))
    timing("tensor.backward_ms", durations("tensor.backward", SCOPE_TRAIN, _MS), "tensor.backward")
    count("tensor.tape_ops", summarize(values("tensor.backward", SCOPE_TRAIN))[0], "tensor.backward")

    forwards = pick("model.forward", SCOPE_EVAL)
    timing("model.forward_ms", durations("model.forward", SCOPE_EVAL, _MS), "model.forward")
    timing("model.self_ms", [own(i, _MS) for i in forwards], "model.forward")
    count("model.rows_per_forward", ratio(sum(values("model.forward", SCOPE_EVAL)), len(forwards)), "model.forward")
    count("model.forwards_per_pair", ratio(len(forwards), eval_pairs), "model.forward")
    train_rows = values("model.forward", SCOPE_TRAIN)
    count("model.train_rows_per_forward", ratio(sum(train_rows), len(train_rows)), "model.forward")

    step_ms, loop_self_ms = [], []
    starts = {}
    for prev, cur in zip(adamw, adamw[1:]):
        if spans[prev][4] != spans[cur][4]:
            continue  # consecutive steps of different train() calls
        a, b = spans[prev][2], spans[cur][2]
        parent = spans[cur][3]
        siblings = children[parent]
        if parent not in starts:
            starts[parent] = [spans[j][1] for j in siblings]
        lo, hi = bisect.bisect_left(starts[parent], a), bisect.bisect_left(starts[parent], b)
        kids = [(spans[j][1], spans[j][2]) for j in siblings[lo:hi]]
        step_ms.append((b - a) * _MS)
        loop_self_ms.append(self_time(a, b, kids) * _MS)
    sizes = values("training.adamw", SCOPE_TRAIN)
    timing("training.step_ms", step_ms, "training.adamw")
    timing("training.adamw_ms", durations("training.adamw", SCOPE_TRAIN, _MS), "training.adamw")
    count("training.opt_tensors", summarize([s[0] for s in sizes])[0], "training.adamw")
    count("training.opt_scalars", summarize([s[1] for s in sizes])[0], "training.adamw")
    timing("training.loop_self_ms", loop_self_ms, "training.adamw")

    timing("peft.adapt_ms", durations("peft.adapt", SCOPE_TRAIN, _MS), "peft.adapt")
    count("peft.adapters", summarize(values("peft.adapt", SCOPE_TRAIN))[0], "peft.adapt")
    timing("peft.merge_ms", durations("peft.merge", None, _MS), "peft.merge")

    renders = pick("data.render", SCOPE_EVAL)
    timing("data.render_us", durations("data.render", SCOPE_EVAL, _US), "data.render")
    count("data.render_calls", ratio(len(renders), eval_pairs), "data.render")
    timing("data.synth_ms", durations("data.synth", None, _MS), "data.synth")
    builds = pick("data.build_tokenizer", SCOPE_TRAIN) or pick("data.build_tokenizer", None)
    timing("data.build_tokenizer_ms", [(spans[i][2] - spans[i][1]) * _MS for i in builds], "data.build_tokenizer")

    timing("tokenizer.encode_us", durations("tokenizer.encode", SCOPE_EVAL, _US), "tokenizer.encode")
    count("tokenizer.encode_calls", ratio(len(pick("tokenizer.encode", SCOPE_EVAL)), len(renders)),
          "tokenizer.encode", "data.render")

    timing("evaluation.score_us", durations("evaluation.score", SCOPE_EVAL, _US), "evaluation.score")
    timing("evaluation.aggregate_ms", durations("evaluation.aggregate", SCOPE_EVAL, _MS), "evaluation.aggregate")
    timing("evaluation.self_ms", [own(i, _MS) for i in pick("evaluation.eval_dataset", SCOPE_EVAL)],
           "evaluation.eval_dataset")

    timing("checkpoint.save_ms", durations("checkpoint.save", None, _MS), "checkpoint.save")
    timing("checkpoint.load_ms", durations("checkpoint.load", None, _MS), "checkpoint.load")
    count("checkpoint.bytes", summarize(values("checkpoint.save", None))[0], "checkpoint.save")

    gone = set(tracer.absent)
    absent = sorted(name for name, kinds in needs.items() if gone.intersection(kinds))
    return out, absent
