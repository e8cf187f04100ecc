"""End-to-end command-line behavior: exit codes, artifacts, golden help."""

import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import clozerm
import clozerm.training
from clozerm.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from clozerm.cli import run
from clozerm.data import (
    DOMAIN_PREFIXES,
    PREFIX_POOL,
    SYNTH_TASKS,
    ClozeTemplate,
    PreferencePair,
    load_jsonl,
    save_jsonl,
    synth_generate,
)
from clozerm.evaluation import EvalModel, eval_dataset
from clozerm.training import ModelSettings, TrainConfig, train_aao
from helpers import MALFORMED_CHECKPOINTS, malformed_checkpoint

GOLDEN = pathlib.Path(__file__).parent / "golden"
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

TINY = ["--n-layers", "1", "--hidden", "16", "--n-heads", "2", "--ffn-mult", "2",
        "--max-seq", "48", "--batch-size", "8", "--prefix", "Solve:"]
FLAT = ["--n-layers", "0", "--hidden", "16", "--n-heads", "2", "--ffn-mult", "2",
        "--max-seq", "48", "--batch-size", "8", "--prefix", "Solve:"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    path = root / "arith16.jsonl"
    save_jsonl(synth_generate("arithmetic", 16, seed=2), path)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    root = tmp_path_factory.mktemp("ckpt")
    out = root / "model.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY]) == 0
    return out


# ---------------------------------------------------------------------------
# flops


def test_flops_prints_golden_line(capsys):
    assert run(["flops", "--params", "1000000", "--layers", "10", "--hidden", "100"]) == 0
    assert capsys.readouterr().out == "0.00260 GFLOPs/token\n"


def console_scripts(pyproject_text):
    """The ``[project.scripts]`` table of a pyproject.toml, read as plain text.

    ``tomllib`` exists only from Python 3.11 and the package supports 3.10.
    """
    scripts, in_table = {}, False
    for line in pyproject_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = (part.strip().strip("\"'") for part in line.split("=", 1))
            scripts[name] = target
    return scripts


def test_flops_entry_point_subprocess():
    # The installed `clozerm` script is a wrapper that calls clozerm.cli:main.
    # `python -m clozerm` runs that same main() in a real process without an
    # install; the child imports the package this test imported.
    src = str(pathlib.Path(clozerm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "clozerm",
         "flops", "--params", "1000000", "--layers", "10", "--hidden", "100"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.00260 GFLOPs/token\n"
    scripts = console_scripts(PYPROJECT.read_text(encoding="utf-8"))
    assert scripts.get("clozerm") == "clozerm.cli:main"


# ---------------------------------------------------------------------------
# synth


def test_synth_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["synth", "--task", "arithmetic", "--n", "100", "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(load_jsonl(a)) == 100
    assert "100 pairs" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_flag_exits_1(capsys):
    assert run(["flops", "--params", "1", "--layers", "1", "--hidden", "1", "--bogus"]) == 1
    assert "unrecognized" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    assert run(["launch"]) == 1


def test_missing_data_file_exits_2(tmp_path, capsys):
    out = tmp_path / "x.trm1"
    assert run(["train", "--data", str(tmp_path / "none.jsonl"), "--out", str(out), *TINY]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_corrupt_checkpoint_exits_2(tmp_path, corpus):
    bad = tmp_path / "bad.trm1"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    assert run(["eval", "--ckpt", str(bad), "--data", str(corpus)]) == 2


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_malformed_checkpoint_exits_2(tmp_path, trained, corpus, case, capsys):
    bad = tmp_path / "bad.trm1"
    bad.write_bytes(malformed_checkpoint(trained.read_bytes(), case))
    assert run(["eval", "--ckpt", str(bad), "--data", str(corpus)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unwritable_report_path_exits_2(trained, corpus, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir.json"
    assert run(["eval", "--ckpt", str(trained), "--data", str(corpus),
                "--out", str(missing_dir)]) == 2


def test_validation_error_exits_1(tmp_path, corpus):
    out = tmp_path / "x.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY,
                "--batch-size", "0"]) == 1


def test_empty_heldout_exits_1_before_training(tmp_path, corpus, capsys):
    # An empty file, and one whose only pair cannot fit --max-seq.
    empty, overlong = tmp_path / "empty.jsonl", tmp_path / "overlong.jsonl"
    empty.write_text("")
    save_jsonl([PreferencePair("big", "x " * 200, "1", "2", "reasoning")], overlong)
    out, trace = tmp_path / "x.trm1", tmp_path / "x.csv"
    for heldout, message in ((empty, "held-out dataset is empty"), (overlong, "every held-out pair was skipped")):
        assert run(["train", "--data", str(corpus), "--heldout", str(heldout), "--out", str(out),
                    "--trace", str(trace), *TINY]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl", "overlong.jsonl"]


def test_divergence_exits_3(tmp_path, corpus, capsys):
    out = tmp_path / "x.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY,
                "--learning-rate", "1e30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


# An update that overflows the parameters exits 3 with only the error line on
# stderr (no NumPy warning) and writes nothing, also when it is a run's last:
# at batch size 16 the run has one step, so no later loss shows it.
@pytest.mark.parametrize("command", [
    ["train", "--learning-rate", "1e30", "--batch-size", "16"],
    ["sweep", "--lr-min", "1e30", "--lr-max", "1e30", "--ranks", "0", "--trials", "1"],
], ids=["train-last-update", "sweep"])
def test_overflowing_updates_exit_3_and_write_nothing(tmp_path, corpus, capsys, command):
    sub, *rest = command
    out = tmp_path / "out"
    assert run([sub, "--data", str(corpus), "--out", str(out), *TINY, *rest]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "non-finite" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / merge / eval / average pipeline


def test_train_emits_checkpoint_and_trace(tmp_path, corpus, capsys):
    out, trace = tmp_path / "m.trm1", tmp_path / "trace.csv"
    assert run(["train", "--data", str(corpus), "--out", str(out),
                "--trace", str(trace), *TINY]) == 0
    ckpt = load_checkpoint(out)
    assert ckpt.extra["train"]["batch_size"] == 8
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,lr,loss,heldout_acc"
    assert len(lines) == 1 + ckpt.extra["train"]["total_steps"]
    assert "final loss" in capsys.readouterr().out


def test_train_byte_identical_reruns(tmp_path, corpus):
    a, b = tmp_path / "a.trm1", tmp_path / "b.trm1"
    argv = ["train", "--data", str(corpus), *TINY, "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_merge_folds_adapters_and_result_evaluates(tmp_path, corpus, capsys):
    raw, merged = tmp_path / "raw.trm1", tmp_path / "merged.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(raw), *TINY,
                "--dora-rank", "2"]) == 0
    assert any(name.startswith("adapter.") for name in load_checkpoint(raw).tensors)
    assert run(["merge", "--ckpt", str(raw), "--out", str(merged)]) == 0
    ckpt = load_checkpoint(merged)
    assert not any(name.startswith("adapter.") for name in ckpt.tensors)
    assert "dora" not in ckpt.extra
    capsys.readouterr()
    assert run(["eval", "--ckpt", str(merged), "--data", str(corpus)]) == 0
    assert "overall" in capsys.readouterr().out


@pytest.fixture(scope="module")
def dora_trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("dora") / "dora.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY, "--dora-rank", "2"]) == 0
    return out


# One defect each in the rank-2 adapters (hidden 16) of a DoRA checkpoint:
# (tensors, dora block) -> (tensors, dora block or None to drop it).
MALFORMED_ADAPTERS = {
    "no-dora-block": lambda t, d: (t, None),
    "dora-block-without-rank": lambda t, d: (t, {k: v for k, v in d.items() if k != "rank"}),
    "missing-B": lambda t, d: ({n: a for n, a in t.items() if n != "adapter.layer0.wq.B"}, d),
    "unknown-base": lambda t, d: ({n.replace(".layer0.wq.", ".layer9.wq."): a for n, a in t.items()}, d),
    "wrong-rank-A": lambda t, d: ({**t, "adapter.layer0.wq.A": np.zeros((3, 16), np.float32)}, d),
    "wrong-length-m": lambda t, d: ({**t, "adapter.layer0.wq.m": np.zeros(17, np.float32)}, d),
}


@pytest.mark.parametrize("command", ["eval", "merge"])
@pytest.mark.parametrize("case", sorted(MALFORMED_ADAPTERS))
def test_malformed_adapters_exit_2(tmp_path, dora_trained, corpus, case, command, capsys):
    good = load_checkpoint(dora_trained)
    tensors, dora = MALFORMED_ADAPTERS[case](dict(good.tensors), good.extra["dora"])
    extra = {k: v for k, v in good.extra.items() if k != "dora"}
    if dora is not None:
        extra["dora"] = dora
    bad = tmp_path / "bad.trm1"
    save_checkpoint(Checkpoint(config=good.config, tensors=tensors, extra=extra), bad)
    args = ["--data", str(corpus)] if command == "eval" else ["--out", str(tmp_path / "merged.trm1")]
    assert run([command, "--ckpt", str(bad), *args]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_writes_json_report(tmp_path, trained, corpus, capsys):
    report_path = tmp_path / "report.json"
    assert run(["eval", "--ckpt", str(trained), "--data", str(corpus),
                "--out", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert 0.0 <= payload["total_accuracy"] <= 1.0
    assert payload["n"]["reasoning"] == 2 * 16
    table = capsys.readouterr().out
    assert table.splitlines()[0].startswith("category")
    assert "GFLOPs/token" in table


def test_eval_non_finite_logits_exits_3(tmp_path, trained, corpus, capsys):
    full = load_checkpoint(trained)
    tensors = dict(full.tensors)
    # Finite weights (a NaN weight no longer loads) whose logits overflow.
    tensors["head.w"] = np.full_like(tensors["head.w"], np.finfo(np.float32).max)
    broken = tmp_path / "overflow.trm1"
    save_checkpoint(Checkpoint(config=full.config, tensors=tensors, extra=full.extra), broken)
    report = tmp_path / "report.json"
    assert run(["eval", "--ckpt", str(broken), "--data", str(corpus), "--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "non-finite" in err
    assert not report.exists()


def test_eval_prefix_override(tmp_path, trained, corpus, capsys):
    assert run(["eval", "--ckpt", str(trained), "--data", str(corpus),
                "--prefix", "Which response is more correct?"]) == 0
    # An empty prefix is rejected, not read as "no override".
    report = tmp_path / "report.json"
    assert run(["eval", "--ckpt", str(trained), "--data", str(corpus), "--prefix", "",
                "--out", str(report)]) == 1
    assert "prefix" in capsys.readouterr().err
    assert not report.exists()


def rewrite_extra(src, dst, **changes):
    """Copy checkpoint src to dst with its extra block updated; a None value
    drops the key."""
    ckpt = load_checkpoint(src)
    extra = {**ckpt.extra, **changes}
    extra = {k: v for k, v in extra.items() if v is not None}
    save_checkpoint(Checkpoint(config=ckpt.config, tensors=ckpt.tensors, extra=extra), dst)
    return dst


def test_eval_without_template_block_needs_prefix(tmp_path, trained, corpus, capsys):
    stripped = rewrite_extra(trained, tmp_path / "no-template.trm1", template=None)
    assert run(["eval", "--ckpt", str(stripped), "--data", str(corpus)]) == 2
    assert "template" in capsys.readouterr().err
    assert run(["eval", "--ckpt", str(stripped), "--data", str(corpus), "--prefix", "Solve:"]) == 0


def test_average_keeps_template_only_when_inputs_agree(tmp_path, trained, corpus):
    other = tmp_path / "other.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(other), *TINY, "--prefix", "Other:"]) == 0
    same, mixed = tmp_path / "same.trm1", tmp_path / "mixed.trm1"
    assert run(["average", str(trained), str(trained), "--out", str(same)]) == 0
    assert load_checkpoint(same).extra["template"] == load_checkpoint(trained).extra["template"]
    assert run(["average", str(trained), str(other), "--out", str(mixed)]) == 0
    assert "template" not in load_checkpoint(mixed).extra
    assert run(["eval", "--ckpt", str(mixed), "--data", str(corpus)]) == 2
    assert run(["eval", "--ckpt", str(mixed), "--data", str(corpus), "--prefix", "Solve:"]) == 0


@pytest.mark.parametrize("vocab", ["missing", "short", "duplicate"])
def test_missing_or_invalid_vocabulary_exits_2(tmp_path, trained, corpus, vocab, capsys):
    tokens = load_checkpoint(trained).extra["vocab"]
    bad_vocab = {"missing": None, "short": tokens[:-1], "duplicate": tokens[:-1] + tokens[-2:-1]}[vocab]
    bad = rewrite_extra(trained, tmp_path / "bad.trm1", vocab=bad_vocab)
    assert run(["eval", "--ckpt", str(bad), "--data", str(corpus)]) == 2
    assert run(["train", "--data", str(corpus), "--init-from", str(bad),
                "--out", str(tmp_path / "x.trm1"), *TINY]) == 2
    assert "vocabulary" in capsys.readouterr().err


@pytest.fixture(scope="module")
def aao_trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("aao")
    by_task = {task: synth_generate(task, n, seed=seed)
               for task, n, seed in (("arithmetic", 16, 2), ("refusal", 8, 3), ("verbosity", 8, 4))}
    config = TrainConfig(learning_rate=3e-3, batch_size=4, prefix="Solve:",
                         model=ModelSettings(n_layers=1, hidden=16, n_heads=2, ffn_mult=2, max_seq=48))
    save_checkpoint(train_aao(config, by_task).checkpoint, root / "aao.trm1")
    heldout = [p for task in SYNTH_TASKS for p in synth_generate(task, 6, seed=9)]
    save_jsonl(heldout, root / "heldout.jsonl")
    return root / "aao.trm1", root / "heldout.jsonl"


def test_eval_scores_aao_checkpoint_with_each_domain_prompt(tmp_path, aao_trained):
    ckpt, data = aao_trained
    out = tmp_path / "report.json"
    assert run(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    pairs = load_jsonl(data)
    for domain, prefix in DOMAIN_PREFIXES.items():
        model = EvalModel.from_checkpoint(load_checkpoint(ckpt), template=ClozeTemplate(prefix))
        own = [p for p in pairs if p.domain == domain]
        assert payload[domain] == eval_dataset(model, own).total_accuracy


def test_average_of_identical_checkpoints_is_identity(tmp_path, trained):
    avg = tmp_path / "avg.trm1"
    assert run(["average", str(trained), str(trained), "--out", str(avg)]) == 0
    original = load_checkpoint(trained)
    averaged = load_checkpoint(avg)
    for name, arr in original.tensors.items():
        assert np.array_equal(averaged.tensors[name], arr)


def test_average_manifest_mismatch_exits_1_naming_tensor(tmp_path, trained, dora_trained, capsys):
    # Both files load (a file missing a tensor does not: exit 2), but the
    # adapter tensors of the unmerged DoRA checkpoint are not in the other.
    out = tmp_path / "avg.trm1"
    assert run(["average", str(trained), str(dora_trained), "--out", str(out)]) == 1
    assert "adapter.layer0.wq.A" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config files


def test_config_file_flags_override(tmp_path, corpus):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate = 0.005\nbatch_size = 4\n# comment\n\nseed = 9\n")
    out = tmp_path / "m.trm1"
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY,
                "--config", str(cfg), "--learning-rate", "0.002"]) == 0
    meta = load_checkpoint(out).extra["train"]
    assert meta["learning_rate"] == 0.002  # flag wins
    assert meta["batch_size"] == 8  # TINY's explicit flag wins
    assert meta["seed"] == 9  # file value survives when not overridden


def test_config_file_errors(tmp_path, corpus):
    out = tmp_path / "m.trm1"
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning rate 0.005\n")
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY,
                "--config", str(bad)]) == 1
    assert run(["train", "--data", str(corpus), "--out", str(out), *TINY,
                "--config", str(tmp_path / "none.cfg")]) == 2


# A non-finite learning rate, weight decay, clip norm or sweep bound is a
# configuration error (exit 1) before any step, from a flag or a config file,
# with no warning on the way.
@pytest.mark.parametrize("command,name", [
    (["train", "--clip-norm", "nan"], "clip_norm"),
    (["train", "--clip-norm", "inf"], "clip_norm"),
    (["train", "--learning-rate", "nan"], "learning_rate"),
    (["train", "--learning-rate", "inf"], "learning_rate"),
    (["train", "--weight-decay", "nan"], "weight_decay"),
    (["train", "--weight-decay", "inf"], "weight_decay"),
    (["train", "--config", "nan.cfg"], "learning_rate"),
    (["sweep", "--lr-max", "inf", "--ranks", "0"], "lr_max"),
    (["sweep", "--lr-min", "nan", "--ranks", "0"], "lr_min"),
], ids=["clip-nan", "clip-inf", "lr-nan", "lr-inf", "wd-nan", "wd-inf", "config-lr-nan",
        "sweep-lr-max-inf", "sweep-lr-min-nan"])
def test_non_finite_float_settings_exit_1(tmp_path, corpus, capsys, recwarn, command, name):
    (tmp_path / "nan.cfg").write_text("learning_rate = nan\n")
    sub, *rest = command
    rest = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in rest]
    out = tmp_path / "out"
    assert run([sub, "--data", str(corpus), "--out", str(out), *rest, *FLAT]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert "Traceback" not in err and "Warning" not in err
    assert not recwarn.list
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep / compare


def test_sweep_writes_ranked_csv_deterministically(tmp_path, corpus, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--data", str(corpus), "--trials", "2", "--ranks", "0",
            "--seed", "4", *FLAT]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("trial,learning_rate,dora_rank")
    assert len(lines) == 3
    assert "best: trial" in capsys.readouterr().out


def test_sweep_prefix_flag_sets_every_trial_prefix(tmp_path, corpus):
    argv = ["sweep", "--data", str(corpus), "--trials", "4", "--ranks", "0", "--seed", "4",
            *FLAT[:-2]]
    prefixes = {}
    for name, extra in (("given", ["--prefix", "Solve:"]), ("drawn", [])):
        out = tmp_path / f"{name}.csv"
        assert run(argv + extra + ["--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        prefixes[name] = {row["prefix"] for row in rows}
    assert prefixes["given"] == {"Solve:"}
    assert prefixes["drawn"] <= set(PREFIX_POOL)


def test_sweep_dora_targets_reach_every_adapted_trial(tmp_path, corpus, monkeypatch):
    seen = []
    real_train = clozerm.training.train

    def recording_train(config, pairs, **kw):
        seen.append(config.dora)
        return real_train(config, pairs, **kw)

    monkeypatch.setattr(clozerm.training, "train", recording_train)
    argv = ["sweep", "--data", str(corpus), "--trials", "4", "--ranks", "0,2", "--seed", "4",
            "--dora-targets", "wq,w2", "--out", str(tmp_path / "sweep.csv"), *TINY]
    assert run(argv) == 0
    adapted = [dora for dora in seen if dora is not None]
    assert len(seen) == 4 and adapted
    assert all(dora.targets.roles == ("wq", "w2") for dora in adapted)


# --dora-targets names the matrices that adapters go on, so it is an error
# wherever no run gets adapters, whether or not the roles are valid.
@pytest.mark.parametrize("targets", ["bogus", "wq"])
@pytest.mark.parametrize("command", [
    ["train", "--out", "m.trm1"],
    ["train", "--out", "m.trm1", "--dora-rank", "0"],
    ["compare", "--out", "cmp.json"],
    ["sweep", "--out", "sweep.csv", "--ranks", "0"],
], ids=["train", "train-rank-0", "compare", "sweep-rank-0"])
def test_dora_targets_without_adapters_exits_1(tmp_path, corpus, capsys, command, targets):
    sub, flag, name, *rest = command
    out = tmp_path / name
    assert run([sub, "--data", str(corpus), flag, str(out), *rest, "--dora-targets", targets, *TINY]) == 1
    err = capsys.readouterr().err
    assert "--dora-targets" in err
    if sub == "sweep":
        assert "--ranks" in err and "--dora-rank" not in err
    assert not out.exists()


# With every layer frozen no adapter can attach, and the run would train
# only the final norm and the head, so DoRA there exits 1 before writing.
@pytest.mark.parametrize("command", [
    ["train", "--out", "m.trm1", "--dora-rank", "2", "--frozen-layers", "1"],
    ["sweep", "--out", "sweep.csv", "--ranks", "2", "--frozen-min", "1", "--frozen-max", "1"],
], ids=["train", "sweep"])
def test_dora_with_every_layer_frozen_exits_1(tmp_path, corpus, capsys, command):
    sub, flag, name, *rest = command
    out = tmp_path / name
    assert run([sub, "--data", str(corpus), flag, str(out), *rest, *TINY]) == 1
    assert "no layer to adapt" in capsys.readouterr().err
    assert not out.exists()


# --eval-every scores a held-out set: train without --heldout exits 1
# before writing. Sweep and compare, whose trials score none, have no such
# flag, so it is a usage error there (exit 1, like any unknown flag).
@pytest.mark.parametrize("command,message", [
    (["train", "--out", "m.trm1"], "held-out"),
    (["sweep", "--out", "sweep.csv", "--ranks", "0", "--trials", "1"], "unrecognized arguments: --eval-every"),
    (["compare", "--out", "cmp.json"], "unrecognized arguments: --eval-every"),
], ids=["train", "sweep", "compare"])
def test_eval_every_without_a_heldout_set_exits_1(tmp_path, corpus, capsys, command, message):
    sub, flag, name, *rest = command
    out = tmp_path / name
    assert run([sub, "--data", str(corpus), flag, str(out), *rest, "--eval-every", "1", *FLAT]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_init_from_with_another_pooling_exits_1(tmp_path, corpus, capsys):
    base, out = tmp_path / "base.trm1", tmp_path / "x.trm1"
    pooled = ["--data", str(corpus), "--objective", "pooled", *FLAT]
    assert run(["train", *pooled, "--pooling", "cls", "--out", str(base)]) == 0
    assert run(["train", *pooled, "--pooling", "mean", "--init-from", str(base), "--out", str(out)]) == 1
    assert "pooling" in capsys.readouterr().err
    assert not out.exists()
    assert run(["train", *pooled, "--pooling", "cls", "--init-from", str(base), "--out", str(out)]) == 0


# Sweep draws each trial's adapter rank and frozen-layer count, so a flag
# that would fix them is an error naming the flags that set the draws.
@pytest.mark.parametrize("flag,names", [
    ("--dora-rank", ["--ranks"]),
    ("--frozen-layers", ["--frozen-min", "--frozen-max"]),
], ids=["dora-rank", "frozen-layers"])
def test_sweep_rejects_a_flag_that_each_trial_draws(tmp_path, corpus, capsys, flag, names):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--data", str(corpus), "--out", str(out), "--ranks", "0", flag, "1", *FLAT]) == 1
    err = capsys.readouterr().err
    assert flag in err and all(name in err for name in names)
    assert not out.exists()


def test_compare_reports_three_objectives(tmp_path, corpus, capsys):
    report_path = tmp_path / "cmp.json"
    assert run(["compare", "--data", str(corpus), "--out", str(report_path), *FLAT]) == 0
    payload = json.loads(report_path.read_text())
    assert [row["objective"] for row in payload["rows"]] == ["cloze", "pooled", "token-level"]
    table = capsys.readouterr().out
    assert len(table.splitlines()) == 4


# ---------------------------------------------------------------------------
# help goldens


HELP_CASES = [
    ("top", ["--help"]),
    ("synth", ["synth", "--help"]),
    ("train", ["train", "--help"]),
    ("sweep", ["sweep", "--help"]),
    ("eval", ["eval", "--help"]),
    ("merge", ["merge", "--help"]),
    ("average", ["average", "--help"]),
    ("flops", ["flops", "--help"]),
    ("compare", ["compare", "--help"]),
]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_matches_golden(name, argv, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"help_{name}.txt").read_text()


def test_help_enumerates_every_flag_with_defaults():
    train_help = (GOLDEN / "help_train.txt").read_text()
    for flag in (
        "--data", "--heldout", "--init-from", "--out", "--trace", "--config",
        "--learning-rate", "--weight-decay", "--batch-size", "--epochs", "--seed",
        "--objective", "--prefix", "--order-policy", "--frozen-layers",
        "--freeze-embeddings", "--dora-rank", "--dora-targets", "--clip-norm",
        "--eval-every", "--n-layers", "--hidden", "--n-heads", "--ffn-mult",
        "--max-seq", "--pooling",
    ):
        assert flag in train_help
    assert train_help.count("(default:") >= 15
    top_help = (GOLDEN / "help_top.txt").read_text()
    for command in ("synth", "train", "sweep", "eval", "merge", "average", "flops", "compare"):
        assert command in top_help
