#!/usr/bin/env python3
"""Write a fixed-seed set of clozerm artifacts to OUTDIR.

Covers the three objectives (checkpoint, trace CSV with held-out accuracy,
eval report each), a cloze run at the README shape (hidden 64, 8 heads,
batch 1) with gradient clipping, three DoRA runs (rank 4 on layer 1,
continued from the cloze checkpoint with eval_every set; rank 8 on every
layer, continued from the README-shape checkpoint at batch 1 with clipping;
rank 2 on wq and w2 only, from scratch at batch 3), each merged and
evaluated before and after the merge, the average of the cloze and merged
rank-4 checkpoints with its eval, an eval of the README-shape checkpoint
under an overriding --prefix, evals of the three objectives' and the
README-shape checkpoints on a 90-pair held-out set (30 single-length
arithmetic pairs, so several full scoring chunks and a remainder), a
two-epoch batch-1 cloze run on that set whose max_seq skips a few pairs,
scored at eval_every steps on a held-out set of which max_seq skips
pairs too, with its eval, a pooled and a token-level run on that set
whose max_seq skips a few pairs, each with its eval, a sweep and an
objective comparison, and six runs that freeze lower layers (criterion
07's DoRA arm, full-rank cloze, pooled-mean and token-level runs, every
layer frozen, and one with trainable embeddings), each with its eval. Next to every eval report REPORT.eval.json it
writes REPORT.trials.jsonl, one line per scored order of a pair from
evaluation.score_pairs with p1 and p2 written by repr, so a change that
moves a probability in its last bit shows even when no report changes.
Every file is deterministic, so `diff -r` between the outputs of two
checkouts shows whether a refactor kept the artifacts byte-identical:

    PYTHONPATH=src python3 scripts/artifacts.py OUTDIR

Runs in well under a minute on one core.
"""

import dataclasses
import json
import sys
from pathlib import Path

from clozerm.checkpoint import load_checkpoint
from clozerm.cli import run
from clozerm.data import ClozeTemplate, load_jsonl
from clozerm.evaluation import EvalModel, score_pairs

SMALL = ["--n-layers", "2", "--hidden", "32", "--n-heads", "4", "--batch-size", "8",
         "--learning-rate", "3e-3", "--seed", "7"]
README = ["--n-layers", "2", "--hidden", "64", "--n-heads", "8", "--batch-size", "1",
          "--learning-rate", "1.75e-3", "--clip-norm", "1.0", "--seed", "7"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit("usage: artifacts.py OUTDIR")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)

    def clozerm(*args):
        code = run([str(a) for a in args])
        if code != 0:
            sys.exit(f"clozerm {args[0]} exited {code}")

    def evaluate(ckpt, data, report, prefix=None):
        override = ["--prefix", prefix] if prefix else []
        clozerm("eval", "--ckpt", ckpt, "--data", data, *override, "--out", out / f"{report}.eval.json")
        template = ClozeTemplate(prefix) if prefix else None
        model = EvalModel.from_checkpoint(load_checkpoint(ckpt), template=template)
        # json writes a float as its repr, which round-trips every bit.
        lines = [json.dumps(dataclasses.asdict(t)) + "\n" for t in score_pairs(model, load_jsonl(data), [])]
        (out / f"{report}.trials.jsonl").write_text("".join(lines))

    data, heldout = out / "train.jsonl", out / "heldout.jsonl"
    clozerm("synth", "--task", "arithmetic", "--n", 240, "--seed", 1, "--out", data)
    for task, seed in (("arithmetic", 2), ("refusal", 3), ("verbosity", 4)):
        clozerm("synth", "--task", task, "--n", 12, "--seed", seed, "--out", out / f"{task}.jsonl")
    heldout.write_text("".join((out / f"{t}.jsonl").read_text()
                               for t in ("arithmetic", "refusal", "verbosity")))

    for objective in ("cloze", "pooled", "token-level"):
        ckpt = out / f"{objective}.trm1"
        clozerm("train", "--data", data, "--heldout", heldout, "--objective", objective,
                "--out", ckpt, "--trace", out / f"{objective}.trace.csv", *SMALL)
        evaluate(ckpt, heldout, objective)

    readme = out / "readme.trm1"
    clozerm("train", "--data", data, "--heldout", heldout, "--out", readme,
            "--trace", out / "readme.trace.csv", *README)
    evaluate(readme, heldout, "readme")

    def adapt(name, *args):
        ckpt, merged = out / f"{name}.trm1", out / f"{name}.merged.trm1"
        clozerm("train", "--data", data, "--heldout", heldout, *args, "--out", ckpt,
                "--trace", out / f"{name}.trace.csv")
        clozerm("merge", "--ckpt", ckpt, "--out", merged)
        for path, report in ((ckpt, name), (merged, f"{name}.merged")):
            evaluate(path, heldout, report)

    adapt("dora", "--init-from", out / "cloze.trm1", "--dora-rank", 4, "--frozen-layers", 1,
          "--eval-every", 10, *SMALL)
    adapt("dora-readme", "--init-from", readme, "--dora-rank", 8, "--eval-every", 60, *README)
    adapt("dora-scratch", "--dora-rank", 2, "--dora-targets", "wq,w2", *SMALL, "--batch-size", 3)

    average = out / "average.trm1"
    clozerm("average", out / "cloze.trm1", out / "dora.merged.trm1", "--out", average)
    evaluate(average, heldout, "average")
    evaluate(readme, heldout, "readme.safer", prefix="Which response is safer?")

    wide = out / "wide-heldout.jsonl"
    for task, seed in (("arithmetic", 5), ("refusal", 6), ("verbosity", 7)):
        clozerm("synth", "--task", task, "--n", 30, "--seed", seed, "--out", out / f"wide-{task}.jsonl")
    wide.write_text("".join((out / f"wide-{t}.jsonl").read_text()
                            for t in ("arithmetic", "refusal", "verbosity")))
    for name in ("cloze", "pooled", "token-level", "readme"):
        evaluate(out / f"{name}.trm1", wide, f"{name}.wide")

    # Two epochs at batch 1 and a max_seq that skips 3 of the 90 pairs: each
    # epoch draws every pair's order, skipped pairs included, and each step's
    # loss shows the order it trained on. The held-out set, 2 of whose 36
    # pairs that max_seq skips, is scored every 40 steps.
    epochs2 = out / "epochs2.trm1"
    clozerm("train", "--data", wide, "--heldout", heldout, "--epochs", 2, "--max-seq", 36, "--eval-every", 40,
            "--out", epochs2, "--trace", out / "epochs2.trace.csv", *SMALL, "--batch-size", 1)
    evaluate(epochs2, heldout, "epochs2")

    # The pooled and token-level renderers on that set at a max_seq that
    # skips 3 of the 90 pairs; at 22 tokens the token head also truncates
    # 57 pairs' responses.
    for objective, max_seq in (("pooled", 28), ("token-level", 22)):
        ckpt = out / f"{objective}.skips.trm1"
        clozerm("train", "--data", wide, "--heldout", heldout, "--objective", objective, "--max-seq", max_seq,
                "--out", ckpt, "--trace", out / f"{objective}.skips.trace.csv", *SMALL)
        evaluate(ckpt, heldout, f"{objective}.skips")

    # Runs whose embeddings and lower layers are frozen, so that training
    # computes their hidden states outside the step: criterion 07's DoRA
    # arm (README shape, batch 1, rank 8, layer 0 frozen, no clipping); a
    # full-rank run at batch 3 on the mixed-length set; pooled-mean and
    # token-level runs; both layers of the 2-layer model frozen, whose last
    # layer still computes only the mask rows in the step; and layer 0
    # frozen under trainable embeddings, which keeps the whole stack in the
    # step. The seed of frozen1 and the rate of frozen2 are picked so that
    # their held-out accuracy is not exactly 0.5.
    adapt("dora-frozen", "--init-from", readme, "--dora-rank", 8, "--frozen-layers", 1,
          "--n-layers", 2, "--hidden", 64, "--n-heads", 8, "--batch-size", 1,
          "--learning-rate", "1.75e-3", "--seed", 7)
    frozen_runs = {
        "frozen1": ["--batch-size", 3, "--seed", 5],
        "frozen1.mean": ["--objective", "pooled", "--pooling", "mean", "--batch-size", 3],
        "frozen1.token-level": ["--objective", "token-level", "--batch-size", 3],
        "frozen2": ["--frozen-layers", 2, "--batch-size", 3, "--learning-rate", "3e-2", "--epochs", 3],
        "frozen1.embeddings": ["--no-freeze-embeddings", "--batch-size", 3],
    }
    for name, args in frozen_runs.items():
        ckpt = out / f"{name}.trm1"
        frozen = [] if "--frozen-layers" in args else ["--frozen-layers", 1]
        clozerm("train", "--data", wide, "--heldout", heldout, *frozen, "--out", ckpt,
                "--trace", out / f"{name}.trace.csv", *SMALL, *args)
        evaluate(ckpt, heldout, name)

    clozerm("sweep", "--data", data, "--trials", 3, "--ranks", "0,4", "--frozen-max", 1,
            "--out", out / "sweep.csv", *SMALL)
    clozerm("compare", "--data", data, "--out", out / "compare.json", *SMALL)


if __name__ == "__main__":
    main()
