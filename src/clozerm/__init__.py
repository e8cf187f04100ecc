"""clozerm: pairwise reward models from a bidirectional masked encoder.

A small, numpy-only toolchain that turns a masked-LM encoder into a
pairwise reward model by rendering each preference pair as a cloze prompt
("Option 1 / Option 2 / The better response is Option [MASK]") and
training the mask prediction over two verbalizer tokens. Includes DoRA
adapters with exact merging, lower-layer freezing, decoupled AdamW with a
linear schedule, both-orders evaluation with position-bias reporting, a
FLOPs/token cost model, checkpoint weight averaging, and a CLI covering
the full synth/train/sweep/eval/merge/average/flops/compare loop.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    CANONICAL_LAYOUT,
    DOMAIN_PREFIXES,
    DOMAINS,
    PREFIX_POOL,
    REFUSAL_MARKER,
    ClozeTemplate,
    PreferencePair,
    Row,
    build_tokenizer,
    load_jsonl,
    render_pair,
    save_jsonl,
    scan_jsonl,
    synth_generate,
)
from .errors import (
    CheckpointError,
    ClozermError,
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    ShapeError,
    SkipRecord,
)
from .evaluation import (
    EvalModel,
    EvalReport,
    TradeoffPoint,
    aggregate_chat,
    aggregate_trials,
    compare_objectives,
    emit_tradeoff,
    eval_dataset,
    flops_per_token,
    format_gflops,
    format_score,
    overall,
    parse_tradeoff,
    score_pairs,
)
from .model import (
    ModelConfig,
    count_params,
    forward_mlm_batch,
    forward_pooled_batch,
    forward_token_batch,
    init_weights,
    manifest,
)
from .peft import (
    AdapterTargets,
    DoraAdapter,
    FreezeSpec,
    apply_freeze,
    attach_adapters,
    dora_init,
    merge_adapters,
    merge_checkpoint,
    weight_average,
)
from .tokenizer import Tokenizer, build_vocab
from .training import (
    DoraSettings,
    ModelSettings,
    OptimizerState,
    SweepSpec,
    TrainConfig,
    TrainResult,
    adamw_update,
    loss_cloze,
    loss_pooled,
    loss_token_level,
    lr_linear,
    sweep,
    train,
    train_aao,
)

__version__ = "0.1.0"
