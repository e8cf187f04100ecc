"""Preference pairs, FLAN-style cloze rendering, JSONL ingestion, and
synthetic desk-scale preference tasks.

The canonical cloze layout places the problem, both options, and the
preference statement ahead of a single mask slot:

    {prefix}
    Problem: {x}
    Option 1: {a}
    Option 2: {b}
    The better response is Option [MASK].

Rendering is segment-wise so that the concatenated segment tokens equal
the tokenization of the full rendered string: a literal segment's trailing
space is absorbed into the following slot value (mirroring the lexer's
space absorption), and the mask slot stands for the space-absorbed
verbalizer token. When a rendering exceeds max_seq, the option bodies are
tail-truncated to one equal budget each; scaffold text never shrinks.
"""

import json
import random
import re
import weakref
from dataclasses import dataclass, field

from .errors import CheckpointError, ConfigError, ContractError, DataError, SkipRecord
from .fileio import atomic_write_text
from .model import HEAD_MLM, HEAD_POOLED, HEAD_TOKEN
from .tokenizer import CLS_ID, MASK_ID, VERB1_ID, VERB2_ID, Tokenizer, build_vocab

DOMAINS = ("chat", "reasoning", "safety")

ORDER_ORIGINAL = "original"
ORDER_SWAPPED = "swapped"
ORDERS = (ORDER_ORIGINAL, ORDER_SWAPPED)

# Instruction-prefix pool; per-domain entries are the tuned per-domain picks.
PREFIX_POOL = (
    "Select the best response.",
    "Which response is more correct?",
    "Which response is safer?",
    "Which response is the most helpful, relevant, and correct?",
)
DOMAIN_PREFIXES = {
    "chat": PREFIX_POOL[0],
    "reasoning": PREFIX_POOL[1],
    "safety": PREFIX_POOL[2],
}

POOLED_LAYOUT = "{prefix}\nProblem: {x}\nOption 1: {a}\nOption 2: {b}"
CANONICAL_LAYOUT = POOLED_LAYOUT + "\nThe better response is Option [MASK]."
RESPONSE_LAYOUT = "{prefix}\nProblem: {x}\nResponse: {y}"

REFUSAL_MARKER = "I can't help with that"

_PLACEHOLDER = re.compile(r"(\{prefix\}|\{x\}|\{a\}|\{b\}|\{y\}|\[MASK\])")


@dataclass
class PreferencePair:
    """One (prompt, chosen, rejected) supervision triple with a domain tag."""

    id: str
    prompt: str
    chosen: str
    rejected: str
    domain: str

    def __post_init__(self):
        for name in ("prompt", "chosen", "rejected"):
            if not getattr(self, name):
                raise DataError(f"empty field {name}")
        if self.chosen == self.rejected:
            raise DataError("degenerate pair")
        if self.domain not in DOMAINS:
            raise DataError(f"unknown domain {self.domain!r}")


@dataclass
class ClozeTemplate:
    """The instruction prefix each pair is rendered with: one prefix, or a
    domain -> prefix map whose missing domains fall back to it. The layouts
    are fixed; a checkpoint records the template as its "template" block."""

    prefix: str
    domain_prefixes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.domain_prefixes, dict) or set(self.domain_prefixes) - set(DOMAINS):
            raise ConfigError(f"template prefix map {self.domain_prefixes!r} must be keyed by {DOMAINS}")
        if not all(isinstance(p, str) and p for p in (self.prefix, *self.domain_prefixes.values())):
            raise ConfigError("template prefixes must be non-empty strings")

    def prefix_for(self, domain: str) -> str:
        return self.domain_prefixes.get(domain, self.prefix)

    def to_block(self) -> dict:
        block = {"layout": CANONICAL_LAYOUT, "prefix": self.prefix}
        if self.domain_prefixes:
            block["domain_prefixes"] = dict(self.domain_prefixes)
        return block

    @classmethod
    def from_block(cls, block) -> "ClozeTemplate":
        """The template of a checkpoint's "template" block; a missing or
        malformed block, or one with another layout, raises CheckpointError."""
        if not isinstance(block, dict):
            raise CheckpointError("checkpoint has no template block")
        if block.get("layout") != CANONICAL_LAYOUT or set(block) - {"layout", "prefix", "domain_prefixes"}:
            raise CheckpointError(f"template block {block!r} is not the canonical layout and prefixes")
        try:
            return cls(block.get("prefix"), block.get("domain_prefixes", {}))
        except ConfigError as exc:
            raise CheckpointError(f"malformed template block: {exc}") from exc


@dataclass
class Row:
    """One rendered row of a pair. read is what the head reads: the mask
    position (mlm), None (pooled) or the response span (token head); target
    is the training target there: the gold verbalizer id, the class (0 when
    Option 1 is the better response) or the span label 1.0/0.0. order is an
    ORDERS entry, or None for a token row."""

    token_ids: list
    read: object
    target: object
    order: "str | None"
    source_id: str


def _parse_layout(layout: str):
    parts = []
    for i, piece in enumerate(_PLACEHOLDER.split(layout)):
        if i % 2:
            parts.append(("slot", "mask" if piece == "[MASK]" else piece[1:-1]))
        elif piece:
            parts.append(("lit", piece))
    return parts


_CLOZE_PARTS = _parse_layout(CANONICAL_LAYOUT)
_POOLED_PARTS = _parse_layout(POOLED_LAYOUT)
_RESPONSE_PARTS = _parse_layout(RESPONSE_LAYOUT)


# Per tokenizer, the ids of the scaffold texts it has encoded: the layout
# literals and the prefixes, which repeat in every pair. Prompts and
# responses are encoded afresh.
_SCAFFOLD_IDS = weakref.WeakKeyDictionary()


def _scaffold_ids(tokenizer: Tokenizer, text: str) -> tuple:
    known = _SCAFFOLD_IDS.setdefault(tokenizer, {})
    ids = known.get(text)
    if ids is None:
        ids = known[text] = tuple(tokenizer.encode(text))
    return ids


def _encode_segments(parts, values, tokenizer: Tokenizer):
    """Tokenize each layout segment, shifting a literal's trailing space
    onto the following slot so segment tokens concatenate to the
    whole-string tokenization."""
    items = [[kind, val, False] for kind, val in parts]
    for i in range(len(items) - 1):
        kind, val, _ = items[i]
        if kind == "lit" and items[i + 1][0] == "slot" and val.endswith(" "):
            items[i][1] = val[:-1]
            items[i + 1][2] = True
    segments = []
    for kind, val, lead in items:
        if kind == "lit":
            if val:
                segments.append(("lit", _scaffold_ids(tokenizer, val)))
        elif val == "mask":
            segments.append(("mask", [MASK_ID]))
        else:
            text = (" " if lead else "") + values[val]
            segments.append((val, _scaffold_ids(tokenizer, text) if val == "prefix" else tokenizer.encode(text)))
    return segments


def _assemble(segments, max_seq: int, record_id: str, body_kinds):
    """Prepend CLS, enforce the budget by tail-truncating body segments to
    equal caps, and return (ids, span-by-kind)."""
    total = 1 + sum(len(ids) for _, ids in segments)
    if total > max_seq:
        body_len = sum(len(ids) for kind, ids in segments if kind in body_kinds)
        scaffold = total - body_len
        cap = (max_seq - scaffold) // len(body_kinds)
        if cap < 1:
            raise SkipRecord(record_id, f"options cannot fit within max_seq {max_seq}")
        segments = [
            (kind, ids[:cap] if kind in body_kinds else ids) for kind, ids in segments
        ]
    ids = [CLS_ID]
    spans = {}
    for kind, seg in segments:
        if kind != "lit":
            spans[kind] = (len(ids), len(ids) + len(seg))
        ids.extend(seg)
    return ids, spans


_SWAP_SLOTS = {"a": "b", "b": "a"}


def render_pair(pair, template: ClozeTemplate, tokenizer: Tokenizer, max_seq: int, head: str) -> list:
    """The pair's two Rows for a head kind.

    mlm and pooled: both orders, in ORDERS order, from one encoding of the
    segments. 'original' puts the chosen response at Option 1 (gold
    verbalizer "1", class 0); 'swapped' holds the same segments with the
    option slots swapped (gold "2", class 1). The pooled rendering is the
    cloze scaffold minus the preference statement. Token head: the chosen
    row then the rejected row, each response rendered on its own.
    """
    prefix = template.prefix_for(pair.domain)
    if head == HEAD_TOKEN:
        rows = []
        for text, label in ((pair.chosen, 1.0), (pair.rejected, 0.0)):
            segments = _encode_segments(_RESPONSE_PARTS, {"prefix": prefix, "x": pair.prompt, "y": text}, tokenizer)
            ids, spans = _assemble(segments, max_seq, pair.id, body_kinds=("y",))
            rows.append(Row(ids, spans["y"], label, None, pair.id))
        return rows
    if head not in (HEAD_MLM, HEAD_POOLED):
        raise ContractError(f"unknown head kind {head!r}")
    pooled = head == HEAD_POOLED
    values = {"prefix": prefix, "x": pair.prompt, "a": pair.chosen, "b": pair.rejected}
    segments = _encode_segments(_POOLED_PARTS if pooled else _CLOZE_PARTS, values, tokenizer)
    slots = dict(segments)
    swapped = [(kind, slots[_SWAP_SLOTS[kind]] if kind in _SWAP_SLOTS else ids) for kind, ids in segments]
    rows = []
    for order in ORDERS:
        original = order == ORDER_ORIGINAL
        ids, spans = _assemble(segments if original else swapped, max_seq, pair.id, body_kinds=("a", "b"))
        if pooled:
            rows.append(Row(ids, None, 0 if original else 1, order, pair.id))
        else:
            rows.append(Row(ids, spans["mask"][0], VERB1_ID if original else VERB2_ID, order, pair.id))
    return rows


def render_pairs(pairs, template: ClozeTemplate, tokenizer: Tokenizer, max_seq: int, head: str,
                 skipped=None) -> list:
    """Each pair's render_pair rows, or None for a pair that cannot fit
    max_seq. Such a pair's SkipRecord is raised, or, given a skipped list,
    appended to it."""
    rendered = []
    for pair in pairs:
        try:
            rendered.append(render_pair(pair, template, tokenizer, max_seq, head))
        except SkipRecord as exc:
            if skipped is None:
                raise
            skipped.append(exc)
            rendered.append(None)
    return rendered


def group_by_length(rows) -> dict:
    """Indices of the token-id rows grouped by row length; lengths and the
    indices within each length in first-seen order."""
    groups = {}
    for i, row in enumerate(rows):
        groups.setdefault(len(row), []).append(i)
    return groups


# Tokens (rows x length) stacked into one untaped forward: a scoring
# forward, in whole pairs and at least one (8 pairs of length 29, 5 of
# length 48, 4 of length 64), or a forward of a training run's frozen
# layers. At the README width a short forward is largely fixed per-call cost,
# but the block ops' arena (see tensor.py) grows with the stack. On a 2-core
# VM, 512 with the arena scored 29-token pairs about x1.35 faster than 4
# pairs a forward without it, for 1.5-2% more peak memory. 448 was as fast
# on 29 tokens but stacks only 3 pairs of 64, and larger budgets take more
# memory. Without the arena, larger stacks faulted in more heap.
TOKEN_BUDGET = 512


def plan_chunks(token_rows, unit: int = 1) -> list:
    """The row indices of each forward over the token-id rows, in planned
    order: rows of one length, lengths in first-seen order, as many rows a
    forward as fit TOKEN_BUDGET tokens in a multiple of unit, and at least
    unit rows. Scoring plans in units of 2, a pair's two rows."""
    plan = []
    for length, idxs in group_by_length(token_rows).items():
        cap = unit * max(1, TOKEN_BUDGET // (unit * length))
        plan += [idxs[lo : lo + cap] for lo in range(0, len(idxs), cap)]
    return plan


def vocab_texts(pairs):
    """Every string the vocabulary must cover: the prefix pool plus each
    pair's filled cloze rendering and both response renderings."""
    yield from PREFIX_POOL
    base = PREFIX_POOL[0]
    filled = CANONICAL_LAYOUT.replace("[MASK]", "1")
    for pair in pairs:
        yield filled.format(prefix=base, x=pair.prompt, a=pair.chosen, b=pair.rejected)
        for response in (pair.chosen, pair.rejected):
            yield RESPONSE_LAYOUT.format(prefix=base, x=pair.prompt, y=response)


def build_tokenizer(pairs) -> Tokenizer:
    return build_vocab(vocab_texts(pairs))


@dataclass
class LineIssue:
    line_no: int
    reason: str


_REQUIRED_KEYS = ("prompt", "chosen", "rejected", "domain")


def scan_jsonl(path):
    """Parse a JSONL preference file, collecting per-line issues instead of
    failing fast. CRLF and LF files parse identically."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    pairs = []
    issues = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            issues.append(LineIssue(line_no, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            issues.append(LineIssue(line_no, "not a JSON object"))
            continue
        reason = None
        for key in _REQUIRED_KEYS:
            if key not in obj:
                reason = f"missing key {key}"
                break
            if not isinstance(obj[key], str) or not obj[key]:
                reason = f"empty field {key}"
                break
        if reason is None and obj["domain"] not in DOMAINS:
            reason = f"unknown domain {obj['domain']!r}"
        if reason is None and obj["chosen"] == obj["rejected"]:
            reason = "degenerate pair"
        if reason is not None:
            issues.append(LineIssue(line_no, reason))
            continue
        pair_id = obj.get("id") or f"line{line_no}"
        pairs.append(
            PreferencePair(
                id=str(pair_id),
                prompt=obj["prompt"],
                chosen=obj["chosen"],
                rejected=obj["rejected"],
                domain=obj["domain"],
            )
        )
    return pairs, issues


def load_jsonl(path, strict: bool = True):
    """Order-preserving load; with strict=True any invalid line aborts."""
    pairs, issues = scan_jsonl(path)
    if issues and strict:
        detail = "; ".join(f"line {i.line_no}: {i.reason}" for i in issues[:10])
        raise DataError(f"{len(issues)} invalid line(s) in {path}: {detail}", issues)
    return pairs


def save_jsonl(pairs, path) -> None:
    lines = []
    for pair in pairs:
        lines.append(
            json.dumps(
                {
                    "id": pair.id,
                    "prompt": pair.prompt,
                    "chosen": pair.chosen,
                    "rejected": pair.rejected,
                    "domain": pair.domain,
                },
                sort_keys=True,
                ensure_ascii=False,
            )
        )
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


_REFUSAL_VERBS = ("steal", "hack", "forge", "sabotage", "counterfeit")
_REFUSAL_OBJECTS = (
    "a password",
    "a parked car",
    "an exam paper",
    "a door lock",
    "a bank record",
    "a train ticket",
)
_REFUSAL_SUFFIXES = (
    ".",
    ". Please ask me something else.",
    ". That request could cause harm.",
)
_COMPLY_STYLES = (
    "Sure, here is how to {verb} {obj}: first you prepare, then you act.",
    "No problem. To {verb} {obj}, start with the simple part and keep going.",
    "Easy. You {verb} {obj} by waiting for the right moment.",
)

_QA_BANK = (
    ("What color is the sky on a clear day?", "The sky is blue."),
    ("How many legs does a cat have?", "A cat has four legs."),
    ("What is the capital of France?", "The capital of France is Paris."),
    ("Where do fish live?", "Fish live in water."),
    ("When does the sun rise?", "The sun rises in the morning."),
    ("What do bees make?", "Bees make honey."),
    ("How many days are in a week?", "There are seven days in a week."),
    ("What season comes after winter?", "Spring comes after winter."),
)
_OFFTOPIC_BANK = (
    "My uncle once told a long story about boats, the weather, and his garden.",
    "In other news, the stock market has many numbers that move every day.",
    "Speaking of which, I prefer to reorganize my sock drawer on Tuesdays.",
    "That reminds me of a recipe with too much parsley and not enough salt.",
    "Historically, umbrella sales correlate with people owning umbrellas.",
)

SYNTH_TASKS = ("arithmetic", "refusal", "verbosity")


def synth_generate(task: str, n: int, seed: int):
    """Deterministic synthetic preference pairs for one desk-scale task.

    arithmetic (reasoning): the chosen answer is the exact sum, the
    rejected one is a nearby corruption. refusal (safety): the chosen
    response refuses a sketchy request. verbosity (chat): the chosen
    response answers the question, the rejected one rambles off topic.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    rng = random.Random(seed)
    pairs = []
    if task == "arithmetic":
        # operands stay tiny so one epoch over 5k pairs covers every
        # (a, b, corruption) combination hundreds of times; spaces keep
        # operands as standalone tokens sharing embeddings with answers
        for i in range(n):
            a = rng.randint(0, 2)
            b = rng.randint(0, 2)
            total = a + b
            while True:
                wrong = total + rng.choice((-2, -1, 1, 2, 10))
                if wrong >= 0 and wrong != total:
                    break
            pairs.append(
                PreferencePair(
                    id=f"arith-{i:05d}",
                    prompt=f"{a} + {b} = ?",
                    chosen=str(total),
                    rejected=str(wrong),
                    domain="reasoning",
                )
            )
    elif task == "refusal":
        for i in range(n):
            verb = rng.choice(_REFUSAL_VERBS)
            obj = rng.choice(_REFUSAL_OBJECTS)
            refusal = REFUSAL_MARKER + rng.choice(_REFUSAL_SUFFIXES)
            comply = rng.choice(_COMPLY_STYLES).format(verb=verb, obj=obj)
            pairs.append(
                PreferencePair(
                    id=f"refusal-{i:05d}",
                    prompt=f"Tell me how to {verb} {obj}.",
                    chosen=refusal,
                    rejected=comply,
                    domain="safety",
                )
            )
    elif task == "verbosity":
        for i in range(n):
            question, answer = rng.choice(_QA_BANK)
            pairs.append(
                PreferencePair(
                    id=f"verbose-{i:05d}",
                    prompt=question,
                    chosen=answer,
                    rejected=rng.choice(_OFFTOPIC_BANK),
                    domain="chat",
                )
            )
    else:
        raise ConfigError(f"unknown synthetic task {task!r}; expected one of {SYNTH_TASKS}")
    return pairs
