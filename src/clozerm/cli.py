"""Command-line entry points.

Subcommands: synth, train, sweep, eval, merge, average, flops, compare.
Exit codes: 0 success; 1 validation or usage errors; 2 I/O and file-format
errors; 3 numerical divergence (non-finite training loss, trained
parameters or evaluated logits). Results go to stdout or --out files;
diagnostics go to stderr. train/sweep/compare accept --config FILE with
flat key=value lines (keys named like the long flags, underscores for
dashes); explicit flags override file values.
"""

import argparse
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    PREFIX_POOL,
    SYNTH_TASKS,
    ClozeTemplate,
    load_jsonl,
    save_jsonl,
    synth_generate,
)
from .errors import CheckpointError, ClozermError, ConfigError, DivergenceError
from .evaluation import (
    EvalModel,
    compare_objectives,
    comparison_to_json,
    comparison_to_table,
    eval_dataset,
    flops_per_token,
    format_gflops,
    report_to_json,
    report_to_table,
)
from .fileio import atomic_write_text
from .peft import AdapterTargets, FreezeSpec, merge_checkpoint, weight_average
from .training import (
    OBJECTIVES,
    ORDER_POLICIES,
    DoraSettings,
    ModelSettings,
    SweepSpec,
    TrainConfig,
    sweep,
    trace_to_csv,
    train,
    trials_to_csv,
)

_WIDTH = 96
_CONFIG_SUBCOMMANDS = ("train", "sweep", "compare")
_BOOL_KEYS = {"freeze_embeddings"}


class _Formatter(argparse.HelpFormatter):
    """Fixed-width help (stable across terminals) that appends each flag's
    default, so --help alone documents the full configuration surface."""

    def __init__(self, prog):
        super().__init__(prog, width=_WIDTH, max_help_position=28)

    def _get_help_string(self, action):
        text = action.help or ""
        if (
            action.default is not None
            and action.default is not argparse.SUPPRESS
            and not action.required
            and "default" not in text.lower()
        ):
            text += (" " if text else "") + "(default: %(default)s)"
        return text


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting so run() can map them to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _expand_config_file(path):
    """Translate key=value lines into long flags (file values come first,
    so flags given on the command line override them)."""
    args = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if key in _BOOL_KEYS:
                lowered = value.lower()
                if lowered in ("1", "true", "yes", "on"):
                    args.append(flag)
                elif lowered in ("0", "false", "no", "off"):
                    args.append("--no-" + key.replace("_", "-"))
                else:
                    raise ConfigError(f"{path}:{line_no}: boolean key {key} got {value!r}")
            else:
                args.extend([flag, value])
    return args


def _inject_config(argv):
    sub, rest = argv[0], list(argv[1:])
    path = None
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--config" and i + 1 < len(rest):
            path = rest[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok[len("--config="):]
            i += 1
        else:
            i += 1
    if path is None:
        return argv
    return [sub] + _expand_config_file(path) + rest


def _add_model_flags(p):
    p.add_argument("--n-layers", type=int, default=2, help="encoder layers")
    p.add_argument("--hidden", type=int, default=64, help="hidden size")
    p.add_argument("--n-heads", type=int, default=4, help="attention heads")
    p.add_argument("--ffn-mult", type=int, default=4, help="FFN width multiplier")
    p.add_argument("--max-seq", type=int, default=64, help="maximum sequence length")
    p.add_argument("--pooling", choices=("cls", "mean"), default="cls",
                   help="pooling for the pooled objective")


def _add_train_flags(p, sweep=False, heldout=False):
    """The training flags of train, compare and sweep. Sweep draws each
    trial's prefix (unless --prefix is given), frozen-layer count and
    adapter rank, so there these flags default to None and _cmd_sweep
    rejects --frozen-layers and --dora-rank when they are given. Only a
    command that takes a held-out set (heldout=True) has --eval-every."""
    p.add_argument("--config", metavar="FILE",
                   help="key=value config file; explicit flags override it")
    p.add_argument("--learning-rate", type=float, default=1e-3,
                   help="peak learning rate, decayed linearly to zero")
    p.add_argument("--weight-decay", type=float, default=1e-5, help="decoupled weight decay")
    p.add_argument("--batch-size", type=int, default=256, help="instances per optimizer step")
    p.add_argument("--epochs", type=int, default=1, help="passes over the training pairs")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--objective", choices=OBJECTIVES, default="cloze", help="training objective")
    p.add_argument("--prefix", default=None if sweep else PREFIX_POOL[0],
                   help="instruction prefix of every trial (default: each trial draws one"
                        " from the prefix pool)" if sweep else "instruction prefix")
    p.add_argument("--order-policy", choices=ORDER_POLICIES, default="shuffled",
                   help="option-order rendering policy")
    p.add_argument("--frozen-layers", type=int, default=None if sweep else 0,
                   help="rejected: each trial draws its count from --frozen-min/--frozen-max"
                   if sweep else "freeze this many lower layers")
    p.add_argument("--freeze-embeddings", action=argparse.BooleanOptionalAction, default=None,
                   help="default: frozen whenever any layer is frozen")
    p.add_argument("--dora-rank", type=int, default=None if sweep else 0,
                   help="rejected: each trial draws its rank from --ranks"
                   if sweep else "adapter rank; 0 disables adapters")
    p.add_argument("--dora-targets", default=None,
                   help="comma-separated matrix roles (default: all six)")
    p.add_argument("--clip-norm", type=float, default=None, help="global gradient-norm clip")
    if heldout:
        p.add_argument("--eval-every", type=int, default=0,
                       help="held-out eval cadence in steps (0: final step only)")
    _add_model_flags(p)


def _train_config_from(args) -> TrainConfig:
    model = ModelSettings(
        n_layers=args.n_layers,
        hidden=args.hidden,
        n_heads=args.n_heads,
        ffn_mult=args.ffn_mult,
        max_seq=args.max_seq,
        pooling=args.pooling,
    )
    if args.dora_rank < 0:
        raise ConfigError("dora-rank must be non-negative")
    dora = None
    if args.dora_rank > 0:
        targets = AdapterTargets()
        if args.dora_targets:
            targets = AdapterTargets(tuple(s.strip() for s in args.dora_targets.split(",")))
        dora = DoraSettings(rank=args.dora_rank, targets=targets)
    elif args.dora_targets is not None:
        wanted = "a rank above 0 in --ranks" if args.command == "sweep" else "--dora-rank above 0"
        raise ConfigError(f"--dora-targets needs adapters: set {wanted}")
    return TrainConfig(
        learning_rate=args.learning_rate,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        epochs=args.epochs,
        seed=args.seed,
        freeze=FreezeSpec(n_frozen_layers=args.frozen_layers,
                          freeze_embeddings=args.freeze_embeddings),
        dora=dora,
        objective=args.objective,
        prefix=args.prefix,
        order_policy=args.order_policy,
        model=model,
        clip_norm=args.clip_norm,
        eval_every=getattr(args, "eval_every", 0),
    )


def _cmd_synth(args) -> int:
    pairs = synth_generate(args.task, args.n, args.seed)
    save_jsonl(pairs, args.out)
    print(f"{args.out}: {len(pairs)} pairs")
    return 0


def _cmd_train(args) -> int:
    pairs = load_jsonl(args.data)
    heldout = load_jsonl(args.heldout) if args.heldout else None
    init_from = load_checkpoint(args.init_from) if args.init_from else None
    config = _train_config_from(args)
    result = train(config, pairs, heldout=heldout, init_from=init_from)
    save_checkpoint(result.checkpoint, args.out)
    if args.trace:
        atomic_write_text(args.trace, trace_to_csv(result.trace))
    if result.skipped:
        print(f"skipped {len(result.skipped)} record(s)", file=sys.stderr)
    last = result.trace[-1]
    line = f"{args.out}: {len(result.trace)} steps, final loss {last.loss:.6f}"
    if last.heldout_acc is not None:
        line += f", heldout acc {last.heldout_acc:.4f}"
    print(line)
    return 0


def _cmd_sweep(args) -> int:
    if args.dora_rank is not None:
        raise ConfigError("sweep draws each trial's adapter rank from --ranks; --dora-rank is not accepted")
    if args.frozen_layers is not None:
        raise ConfigError(
            "sweep draws each trial's frozen layers from --frozen-min/--frozen-max;"
            " --frozen-layers is not accepted"
        )
    pairs = load_jsonl(args.data)
    ranks = tuple(int(s) for s in args.ranks.split(","))
    prefixes = PREFIX_POOL if args.prefix is None else (args.prefix,)
    # The base config needs a prefix, a frozen-layer count and, to carry
    # --dora-targets, adapters; each trial sets its drawn prefix, count and
    # rank.
    args.prefix = prefixes[0]
    args.frozen_layers = 0
    args.dora_rank = max(ranks)
    spec = SweepSpec(
        base=_train_config_from(args),
        trials=args.trials,
        seed=args.seed,
        lr_min=args.lr_min,
        lr_max=args.lr_max,
        ranks=ranks,
        frozen_min=args.frozen_min,
        frozen_max=args.frozen_max,
        heldout_fraction=args.heldout_fraction,
        prefixes=prefixes,
    )
    results = sweep(spec, pairs)
    csv_text = trials_to_csv(results)
    if args.out:
        atomic_write_text(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    best = results[0]
    print(
        f"best: trial {best.index} acc {best.accuracy:.4f} lr {best.learning_rate:.3e}"
        f" rank {best.dora_rank} frozen {best.frozen_layers}"
    )
    return 0


def _cmd_eval(args) -> int:
    template = None if args.prefix is None else ClozeTemplate(args.prefix)
    model = EvalModel.from_checkpoint(load_checkpoint(args.ckpt), template=template)
    report = eval_dataset(model, load_jsonl(args.data))
    if args.out:
        atomic_write_text(args.out, report_to_json(report))
    sys.stdout.write(report_to_table(report))
    return 0


def _cmd_merge(args) -> int:
    merged = merge_checkpoint(load_checkpoint(args.ckpt))
    save_checkpoint(merged, args.out)
    print(f"{args.out}: merged checkpoint with {len(merged.tensors)} tensors")
    return 0


def _cmd_average(args) -> int:
    ckpts = [load_checkpoint(path) for path in args.ckpts]
    averaged = weight_average(ckpts)
    save_checkpoint(averaged, args.out)
    print(f"{args.out}: average of {len(ckpts)} checkpoints")
    return 0


def _cmd_flops(args) -> int:
    flops = flops_per_token(args.params, args.layers, args.hidden)
    print(f"{format_gflops(flops)} GFLOPs/token")
    return 0


def _cmd_compare(args) -> int:
    pairs = load_jsonl(args.data)
    cmp = compare_objectives(pairs, _train_config_from(args),
                             heldout_fraction=args.heldout_fraction)
    if args.out:
        atomic_write_text(args.out, comparison_to_json(cmp))
    sys.stdout.write(comparison_to_table(cmp))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clozerm",
        description="Cloze-prompted pairwise reward models on a bidirectional encoder.",
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    p = sub.add_parser("synth", help="generate a synthetic preference corpus",
                       formatter_class=_Formatter)
    p.add_argument("--task", choices=SYNTH_TASKS, required=True, help="synthetic task")
    p.add_argument("--n", type=int, required=True, help="number of pairs")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train one reward model", formatter_class=_Formatter)
    p.add_argument("--data", required=True, help="training JSONL")
    p.add_argument("--heldout", help="held-out JSONL scored during training")
    p.add_argument("--init-from", help="checkpoint to continue from")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--trace", help="write the per-step metrics CSV here")
    _add_train_flags(p, heldout=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", help="seeded random hyperparameter search",
                       formatter_class=_Formatter)
    p.add_argument("--data", required=True, help="JSONL split internally into train/heldout")
    p.add_argument("--out", help="ranked trial CSV path (default: stdout)")
    p.add_argument("--trials", type=int, default=8, help="number of sampled trials")
    p.add_argument("--lr-min", type=float, default=1e-4, help="log-uniform learning-rate floor")
    p.add_argument("--lr-max", type=float, default=1e-2, help="log-uniform learning-rate ceiling")
    p.add_argument("--ranks", default="0,4,8", help="comma-separated adapter ranks (0: none)")
    p.add_argument("--frozen-min", type=int, default=0, help="smallest frozen-layer count drawn")
    p.add_argument("--frozen-max", type=int, default=0, help="largest frozen-layer count drawn")
    p.add_argument("--heldout-fraction", type=float, default=0.2,
                   help="fraction of pairs held out for trial scoring")
    _add_train_flags(p, sweep=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a JSONL corpus",
                       formatter_class=_Formatter)
    p.add_argument("--ckpt", required=True, help="checkpoint to score with")
    p.add_argument("--data", required=True, help="evaluation JSONL")
    p.add_argument("--prefix", help="override the checkpoint's instruction prefix")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("merge", help="fold adapters into base weights",
                       formatter_class=_Formatter)
    p.add_argument("--ckpt", required=True, help="checkpoint carrying adapter tensors")
    p.add_argument("--out", required=True, help="merged checkpoint path")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("average", help="elementwise average of checkpoints",
                       formatter_class=_Formatter)
    p.add_argument("ckpts", nargs="+", metavar="CKPT", help="checkpoints to average")
    p.add_argument("--out", required=True, help="averaged checkpoint path")
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("flops", help="FLOPs/token for a model size", formatter_class=_Formatter)
    p.add_argument("--params", type=int, required=True, help="parameter count")
    p.add_argument("--layers", type=int, required=True, help="encoder layer count")
    p.add_argument("--hidden", type=int, required=True, help="hidden size")
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("compare", help="train and score all three objectives",
                       formatter_class=_Formatter)
    p.add_argument("--data", required=True, help="JSONL split internally into train/heldout")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--heldout-fraction", type=float, default=0.2,
                   help="fraction of pairs held out for scoring")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        if argv and argv[0] in _CONFIG_SUBCOMMANDS:
            argv = _inject_config(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # the --help path
            return 0 if exc.code in (None, 0) else int(exc.code)
        # Each non-finite result raises its own error; NumPy's warnings would repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClozermError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
