"""The benchmark's three seeded workloads.

Each workload makes every input from its seed with ``synth_generate`` and
hands the program only the generated inputs. A pass runs the workload's
set-up at least ``SETUP_REPEATS`` times and for at least ``SETUP_MIN_S``
seconds (the median is ``setup_s``), then its
measured phase, and collects timings, unit counts, checkpoint digests and
correctness findings. The benchmark calls into the package through module
attributes (``clozerm.training.train``, never a local alias), so a traced
pass sees every call it makes.

Sizes are the two arms of acceptance criterion 07 at reduced length, and a
mixed-domain evaluation; README.md in this directory records why.
"""

import contextlib
import hashlib
import os
import statistics
import time

import numpy as np

import clozerm.checkpoint
import clozerm.data
import clozerm.evaluation
import clozerm.peft
import clozerm.training
from clozerm.peft import FreezeSpec
from clozerm.training import DoraSettings, ModelSettings, TrainConfig

import tracing

# The README quickstart shape and learning rate.
SHAPE = ModelSettings(n_layers=2, hidden=64, n_heads=8, ffn_mult=4, max_seq=64)
LEARNING_RATE = 1.75e-3
PREFIX = "Solve:"

SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
MIN_EVAL_CALLS = 3

N_TRAIN = 2000          # train-b1: full-rank batch-1 steps
N_WARMUP = 32           # train-b1: steps of the set-up's warm-up train() call
# adapt-dora: set-up base steps. A 600-step base stayed at exactly 0.5 (a
# position preference) on 3 of 31 random seeds, and DoRA with layer 0 frozen
# left two of them under 0.55; a 1000-step base reached 0.64 or more on all
# 63 random seeds tried.
N_BASE = 1000
N_DORA = 2000           # adapt-dora: DoRA steps; shorter runs spread more
N_HELDOUT = 200         # held-out arithmetic pairs (both orders are scored)
# eval-mixed: set-up training pairs per task, and held-out pairs per task.
# Arithmetic needs about a thousand steps before it beats chance on every
# seed; with fewer verbosity pairs chat accuracy fell to 0.555 on some seeds.
MIXED_TRAIN = {"arithmetic": 1000, "refusal": 150, "verbosity": 250}
N_MIXED = 100

# Accuracy floors, 0.075 or more below the lowest accuracy measured over the
# seeds listed in README.md.
# At these reduced lengths accuracy varies widely between seeds (criterion
# 07's 0.90 bar needs 5000 steps and holds for 4 of 5 seeds only), so the
# floors catch a learner that is broken, not one that is a little worse. A
# model that only learnt a position preference scores exactly 0.5, so every
# floor is above that.
ACC_FLOOR = {"train-b1": 0.58, "adapt-dora": 0.55, "eval-mixed": 0.72}
MIXED_FLOOR = {"reasoning": 0.57, "safety": 0.80, "chat": 0.65}


def _sub_seed(seed: int, k: int) -> int:
    """Distinct synth_generate seed for the k-th input set of a workload seed."""
    return seed * 64 + k


class Pass:
    """One pass of a workload: set-up, measured phase and their findings."""

    def __init__(self, seed: int, seconds: float, workdir, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.setup_times = []
        self.setup_train_rates = []
        self.train_rates = []
        self.eval_time = 0.0
        self.eval_pairs = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.report_json = None
        self.heldout_acc = None
        self.domain_acc = None
        self._measuring = False

    # -- bookkeeping

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def scope(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.scope(name)

    def setup(self, fn):
        """Run fn at least SETUP_REPEATS times and until SETUP_MIN_S seconds
        have passed, and keep the last result; each run is timed and the
        median is setup_s."""
        state = None
        begin = time.perf_counter()
        while len(self.setup_times) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_MIN_S:
            start = time.perf_counter()
            with self.scope(tracing.SCOPE_SETUP):
                state = fn()
            self.setup_times.append(time.perf_counter() - start)
        return state

    # -- calls into the program

    def train(self, fn, cfg, data, n_instances, **kwargs):
        """Time one training call; in the measured phase its rate is
        train_inst_per_s, in set-up it is recorded separately."""
        scope = tracing.SCOPE_TRAIN if self._measuring else tracing.SCOPE_SETUP
        with self.scope(scope):
            start = time.perf_counter()
            result = fn(cfg, data, **kwargs)
            elapsed = time.perf_counter() - start
        rate = n_instances / elapsed
        (self.train_rates if self._measuring else self.setup_train_rates).append(rate)
        self.attempted += n_instances
        self.failed += len(result.skipped)
        self.check(not result.skipped, f"{len(result.skipped)} training records skipped")
        self.check(len(result.trace) == n_instances, "one optimizer step per instance at batch 1")
        return result

    def round_trip(self, ckpt, name):
        """Save and reload a checkpoint; records its sha256 under name and
        checks that reloading returns the same tensors bit for bit."""
        path = os.path.join(self.workdir, f"{name}.trm1")
        clozerm.checkpoint.save_checkpoint(ckpt, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        previous = self.digests.setdefault(name, digest)
        self.check(previous == digest, f"checkpoint {name} differs between set-up repeats")
        loaded = clozerm.checkpoint.load_checkpoint(path)
        os.unlink(path)
        same = list(loaded.tensors) == list(ckpt.tensors) and all(
            np.array_equal(loaded.tensors[k], ckpt.tensors[k]) for k in ckpt.tensors
        )
        self.check(same, f"checkpoint {name} does not reload bit for bit")
        return loaded

    def evaluate(self, model, pairs):
        """Hand the whole pair list to eval_dataset, again and again, for at
        least MIN_EVAL_CALLS calls and the pass's seconds; every call must
        give the same report. A shared machine's speed drifts over seconds,
        so eval_pairs_per_s is the pairs of all calls over their summed
        time, which averages over the drift better than a median of a few
        calls does."""
        deadline = time.perf_counter() + self.seconds
        counts = {}
        for pair in pairs:
            counts[pair.domain] = counts.get(pair.domain, 0) + 1
        report = None
        calls = 0
        while calls < MIN_EVAL_CALLS or time.perf_counter() < deadline:
            with self.scope(tracing.SCOPE_EVAL):
                start = time.perf_counter()
                report = clozerm.evaluation.eval_dataset(model, pairs)
                elapsed = time.perf_counter() - start
            calls += 1
            self.eval_time += elapsed
            self.eval_pairs += len(pairs)
            self.attempted += len(pairs)
            skipped = getattr(report, "n_skipped", None)
            self.check(isinstance(skipped, int), "eval report lacks an integer n_skipped")
            skipped = skipped if isinstance(skipped, int) else len(pairs)
            self.failed += skipped
            self.check(skipped == 0, f"{skipped} eval pairs skipped")
            self.check(
                report.n == {d: 2 * counts.get(d, 0) for d in clozerm.data.DOMAINS},
                f"eval report n {report.n} is not twice the pair count per domain",
            )
            text = clozerm.evaluation.report_to_json(report)
            if self.report_json is None:
                self.report_json = text
            self.check(text == self.report_json, "eval report differs between repeated calls")
        self.heldout_acc = report.total_accuracy
        self.domain_acc = {d: getattr(report, d) for d in clozerm.data.DOMAINS}
        return report

    def measure(self):
        """Mark the start of the measured phase."""
        self._measuring = True


def _arith_config(seed, **kwargs):
    return TrainConfig(learning_rate=LEARNING_RATE, batch_size=1, seed=seed, prefix=PREFIX,
                       model=SHAPE, **kwargs)


def _learns(p, result, what):
    """Criterion 07's learning signal: the first tenth of the losses has a
    higher mean than the last tenth."""
    losses = [row.loss for row in result.trace]
    tenth = max(1, len(losses) // 10)
    p.check(np.mean(losses[:tenth]) > np.mean(losses[-tenth:]), f"{what}: loss did not fall")


def _arith_inputs(seed, n_train):
    pairs = clozerm.data.synth_generate("arithmetic", n_train, seed=_sub_seed(seed, 0))
    heldout = clozerm.data.synth_generate("arithmetic", N_HELDOUT, seed=_sub_seed(seed, 1))
    return pairs, heldout


def train_b1(p: Pass):
    # Set-up ends with a short train() call that warms the training path.
    # Input generation alone is about 10 ms of pure Python, whose speed on a
    # shared host moved its median by 30-40% between sets of runs; training
    # speed moved by under 10%.
    def setup():
        pairs, heldout = _arith_inputs(p.seed, N_TRAIN)
        p.train(clozerm.training.train, _arith_config(p.seed), pairs[:N_WARMUP], N_WARMUP)
        return pairs, heldout

    pairs, heldout = p.setup(setup)
    p.measure()
    result = p.train(clozerm.training.train, _arith_config(p.seed), pairs, len(pairs))
    _learns(p, result, "train-b1")
    p.round_trip(result.checkpoint, "trained")
    model = clozerm.evaluation.EvalModel.from_checkpoint(result.checkpoint)
    p.evaluate(model, heldout)
    p.check(p.heldout_acc >= ACC_FLOOR["train-b1"],
            f"held-out accuracy {p.heldout_acc:.4f} below {ACC_FLOOR['train-b1']}")


def adapt_dora(p: Pass):
    def setup():
        pairs, heldout = _arith_inputs(p.seed, N_DORA)
        base = p.train(clozerm.training.train, _arith_config(p.seed), pairs[:N_BASE], N_BASE)
        _learns(p, base, "adapt-dora base")
        return pairs, heldout, p.round_trip(base.checkpoint, "base")

    pairs, heldout, base = p.setup(setup)
    p.measure()
    cfg = _arith_config(p.seed, freeze=FreezeSpec(n_frozen_layers=1), dora=DoraSettings(rank=8))
    result = p.train(clozerm.training.train, cfg, pairs, len(pairs), init_from=base)
    adapter_names = [n for n in result.checkpoint.tensors if n.startswith("adapter.")]
    p.check(len(adapter_names) == 3 * len(clozerm.peft.ADAPTER_ROLES),
            f"expected rank-8 DoRA on six roles of layer 1, got {len(adapter_names)} adapter tensors")
    p.round_trip(result.checkpoint, "adapted")
    model = clozerm.evaluation.EvalModel.from_checkpoint(result.checkpoint)
    p.check(set(model.weights) == set(base.tensors), "merged model does not have the base manifest")
    p.evaluate(model, heldout)
    p.check(p.heldout_acc >= ACC_FLOOR["adapt-dora"],
            f"held-out accuracy {p.heldout_acc:.4f} below {ACC_FLOOR['adapt-dora']}")


def eval_mixed(p: Pass):
    # train_aao renders each task with its own prefix, but one eval_dataset
    # call scores every pair with the checkpoint's single template, so a
    # train_aao model scores near chance here; train() over the mix trains
    # with the template it is scored with.
    def setup():
        data, heldout = [], []
        for k, (task, n) in enumerate(MIXED_TRAIN.items()):
            data += clozerm.data.synth_generate(task, n, seed=_sub_seed(p.seed, k))
            heldout += clozerm.data.synth_generate(task, N_MIXED, seed=_sub_seed(p.seed, 8 + k))
        result = p.train(clozerm.training.train, _arith_config(p.seed), data, len(data))
        _learns(p, result, "eval-mixed set-up")
        ckpt = p.round_trip(result.checkpoint, "mixed")
        return clozerm.evaluation.EvalModel.from_checkpoint(ckpt), heldout

    model, heldout = p.setup(setup)
    p.measure()
    p.evaluate(model, heldout)
    p.check(p.heldout_acc >= ACC_FLOOR["eval-mixed"],
            f"held-out accuracy {p.heldout_acc:.4f} below {ACC_FLOOR['eval-mixed']}")
    for domain, floor in MIXED_FLOOR.items():
        acc = p.domain_acc[domain]
        p.check(acc is not None and acc >= floor, f"{domain} accuracy {acc} below {floor}")


WORKLOADS = {
    "train-b1": train_b1,
    "adapt-dora": adapt_dora,
    "eval-mixed": eval_mixed,
}

# Which end-to-end rate a workload's trace overhead is taken from.
PRIMARY_RATE = {
    "train-b1": "train_inst_per_s",
    "adapt-dora": "train_inst_per_s",
    "eval-mixed": "eval_pairs_per_s",
}


def end_to_end(p: Pass):
    """The pass's end-to-end rates and set-up time. Every run reports every
    end-to-end metric; eval-mixed trains only in set-up, so its
    train_inst_per_s is the median rate of those calls."""
    train_rates = p.train_rates or p.setup_train_rates
    return {
        "setup_s": statistics.median(p.setup_times),
        "train_inst_per_s": statistics.median(train_rates),
        "eval_pairs_per_s": p.eval_pairs / p.eval_time,
    }
