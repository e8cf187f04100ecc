"""Cloze construction, JSONL ingestion, synthetic generators."""

import json

import pytest

from clozerm.data import (
    CANONICAL_LAYOUT,
    DOMAIN_PREFIXES,
    DOMAINS,
    ORDERS,
    POOLED_LAYOUT,
    PREFIX_POOL,
    REFUSAL_MARKER,
    RESPONSE_LAYOUT,
    SYNTH_TASKS,
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
from clozerm.errors import CheckpointError, ConfigError, DataError, SkipRecord
from clozerm.model import HEAD_KINDS, HEAD_MLM, HEAD_POOLED, HEAD_TOKEN
from clozerm.tokenizer import CLS_ID, MASK_ID, VERB1_ID, VERB2_ID, Tokenizer

MAX_SEQ = 64


def pair(**kw):
    base = dict(
        id="p1",
        prompt="What is 2 + 2 ?",
        chosen="4",
        rejected="5",
        domain="reasoning",
    )
    base.update(kw)
    return PreferencePair(**base)


def template(prefix="Select the best response."):
    return ClozeTemplate(prefix=prefix)


def tok_for(pairs):
    return build_tokenizer(pairs)


# ---------------------------------------------------------------- template


def test_pooled_layout_drops_preference_statement():
    p = pair()
    tok = tok_for([p])
    for cloze, pooled in zip(render_pair(p, template(), tok, MAX_SEQ, HEAD_MLM),
                             render_pair(p, template(), tok, MAX_SEQ, HEAD_POOLED)):
        cloze, pooled = cloze.token_ids, pooled.token_ids
        assert cloze[: len(pooled)] == pooled
        assert tok.decode(cloze[len(pooled) :]) == "\nThe better response is Option<mask>."


def test_template_prefix_for_falls_back_to_prefix():
    tpl = ClozeTemplate("Solve:", {"safety": "Which response is safer?"})
    assert tpl.prefix_for("safety") == "Which response is safer?"
    assert tpl.prefix_for("reasoning") == "Solve:"
    assert ClozeTemplate("Solve:").prefix_for("safety") == "Solve:"


def test_builders_render_each_domain_with_its_prefix():
    chat = pair(domain="chat")
    tok = tok_for([chat])
    mapped = ClozeTemplate("Solve:", {"chat": PREFIX_POOL[3]})
    plain = ClozeTemplate(PREFIX_POOL[3])
    for head in HEAD_KINDS:
        assert render_pair(chat, mapped, tok, MAX_SEQ, head) == render_pair(chat, plain, tok, MAX_SEQ, head)
    other = render_pair(pair(), mapped, tok, MAX_SEQ, HEAD_MLM)[0]
    assert other == render_pair(pair(), ClozeTemplate("Solve:"), tok, MAX_SEQ, HEAD_MLM)[0]


def test_template_block_round_trip_keeps_single_prefix_bytes():
    assert ClozeTemplate("Solve:").to_block() == {"layout": CANONICAL_LAYOUT, "prefix": "Solve:"}
    for tpl in (ClozeTemplate("Solve:"), ClozeTemplate("Solve:", dict(DOMAIN_PREFIXES))):
        block = json.loads(json.dumps(tpl.to_block()))
        assert ClozeTemplate.from_block(block) == tpl
    assert ClozeTemplate("Solve:", DOMAIN_PREFIXES).to_block()["domain_prefixes"] == DOMAIN_PREFIXES


GOOD_BLOCK = {"layout": CANONICAL_LAYOUT, "prefix": "Solve:", "domain_prefixes": {"chat": "Hi."}}
BAD_BLOCKS = {
    "missing": None,
    "not-a-dict": ["Solve:"],
    "non-canonical-layout": {**GOOD_BLOCK, "layout": "{prefix}\n{x}\n{a}\n{b}\nOption [MASK]."},
    "no-layout": {k: v for k, v in GOOD_BLOCK.items() if k != "layout"},
    "empty-prefix": {**GOOD_BLOCK, "prefix": ""},
    "no-prefix": {k: v for k, v in GOOD_BLOCK.items() if k != "prefix"},
    "non-string-prefix": {**GOOD_BLOCK, "prefix": 7},
    "unknown-domain": {**GOOD_BLOCK, "domain_prefixes": {"sports": "Hi."}},
    "empty-domain-prefix": {**GOOD_BLOCK, "domain_prefixes": {"chat": ""}},
    "map-not-a-dict": {**GOOD_BLOCK, "domain_prefixes": ["chat", "Hi."]},
    "unknown-key": {**GOOD_BLOCK, "prefixes": ["Hi."]},
}


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_from_block_rejects_malformed_blocks(case):
    assert ClozeTemplate.from_block(GOOD_BLOCK).prefix_for("chat") == "Hi."
    with pytest.raises(CheckpointError):
        ClozeTemplate.from_block(BAD_BLOCKS[case])


def test_template_rejects_unknown_domain_and_empty_prefix():
    with pytest.raises(ConfigError):
        ClozeTemplate("")
    with pytest.raises(ConfigError):
        ClozeTemplate("Solve:", {"sports": "Hi."})


# -------------------------------------------------------------- render_pair


def test_order_swap_exchanges_options_and_flips_gold():
    p = pair()
    tok = tok_for([p])
    orig, swap = render_pair(p, template(), tok, MAX_SEQ, HEAD_MLM)
    assert (orig.order, swap.order) == ORDERS
    assert orig.target == VERB1_ID
    assert swap.target == VERB2_ID
    text_orig = tok.decode(orig.token_ids[1:])
    text_swap = tok.decode(swap.token_ids[1:])
    assert "Option 1: 4" in text_orig and "Option 2: 5" in text_orig
    assert "Option 1: 5" in text_swap and "Option 2: 4" in text_swap


def test_prefix_appears_verbatim_first():
    p = pair(domain="safety")
    prefix = "Which response is safer?"
    tok = tok_for([p])
    row = render_pair(p, template(prefix), tok, MAX_SEQ, HEAD_MLM)[0]
    rendered = tok.decode(row.token_ids[1:])
    assert rendered.startswith(prefix)


def test_instance_invariants():
    p = pair()
    tok = tok_for([p])
    for row in render_pair(p, template(), tok, MAX_SEQ, HEAD_MLM):
        assert row.token_ids[0] == CLS_ID
        assert row.token_ids[row.read] == MASK_ID
        assert row.token_ids.count(MASK_ID) == 1
        assert row.target in (VERB1_ID, VERB2_ID)
        assert row.source_id == "p1"
        # mask strictly after both rendered options
        text_before_mask = tok.decode(row.token_ids[1 : row.read])
        assert "Option 1:" in text_before_mask and "Option 2:" in text_before_mask


def test_truncation_shrinks_only_option_bodies():
    long_a = " ".join(f"w{i}" for i in range(60))
    long_b = " ".join(f"v{i}" for i in range(60))
    p = pair(chosen=long_a, rejected=long_b)
    tok = tok_for([p])
    row = render_pair(p, template(), tok, 40, HEAD_MLM)[0]
    assert len(row.token_ids) <= 40
    rendered = tok.decode(row.token_ids[1:])
    assert rendered.startswith("Select the best response.")
    assert "Problem: What is 2 + 2 ?" in rendered
    assert "Option 1:" in rendered and "Option 2:" in rendered
    assert "The better response is Option" in rendered
    assert row.token_ids[row.read] == MASK_ID
    # both options keep a tail-truncated, equal-budget body
    assert "w0" in rendered and "v0" in rendered
    assert "w59" not in rendered and "v59" not in rendered


def test_truncation_budgets_are_equal():
    long_a = " ".join(f"w{i}" for i in range(60))
    long_b = " ".join(f"v{i}" for i in range(60))
    p = pair(chosen=long_a, rejected=long_b)
    tok = tok_for([p])
    row = render_pair(p, template(), tok, 40, HEAD_MLM)[0]
    rendered = tok.decode(row.token_ids[1:])
    opt1 = rendered.split("Option 1: ")[1].split("\nOption 2:")[0]
    opt2 = rendered.split("Option 2: ")[1].split("\nThe better")[0]
    assert len(tok.encode(opt1)) == len(tok.encode(opt2))


def test_overflow_raises_skip_record_with_id():
    p = pair(id="toolong", chosen="a b c", rejected="d e f")
    tok = tok_for([p])
    with pytest.raises(SkipRecord) as exc:
        render_pair(p, template(), tok, 10, HEAD_MLM)
    assert exc.value.record_id == "toolong"


def test_injective_on_synth_corpus():
    pairs = synth_generate("arithmetic", 200, seed=3)
    tok = tok_for(pairs)
    seen = {}
    for p in pairs:
        for order, row in zip(ORDERS, render_pair(p, template(), tok, MAX_SEQ, HEAD_MLM)):
            key = (tuple(row.token_ids), row.target)
            prev = seen.get(key)
            if prev is not None:
                # same rendered instance must come from an identical pair
                q, qorder = prev
                assert (q.prompt, q.chosen, q.rejected, qorder) == (
                    p.prompt,
                    p.chosen,
                    p.rejected,
                    order,
                )
            seen[key] = (p, order)


# ----------------------------------------------- pooled and token level


def test_render_pair_pooled_has_no_mask_and_flips_label():
    p = pair()
    tok = tok_for([p])
    orig, swap = render_pair(p, template(), tok, MAX_SEQ, HEAD_POOLED)
    assert (orig.order, swap.order) == ORDERS
    assert MASK_ID not in orig.token_ids
    assert orig.read is None and swap.read is None
    assert orig.target == 0 and swap.target == 1
    assert orig.token_ids[0] == CLS_ID


def test_render_pair_token_spans_cover_response_only():
    p = pair(chosen="four exactly", rejected="five")
    tok = tok_for([p])
    chosen, rejected = render_pair(p, template(), tok, MAX_SEQ, HEAD_TOKEN)
    lo, hi = chosen.read
    assert tok.decode(chosen.token_ids[lo:hi]).strip() == "four exactly"
    lo, hi = rejected.read
    assert tok.decode(rejected.token_ids[lo:hi]).strip() == "five"
    assert chosen.token_ids[0] == CLS_ID
    assert (chosen.target, rejected.target) == (1.0, 0.0)
    assert chosen.order is None and rejected.source_id == "p1"


def _whole_text_rows(p, tpl, tok, head):
    """The pair's rows as tokenizations of each whole rendered text."""
    prefix = tpl.prefix_for(p.domain)
    if head == HEAD_TOKEN:
        rows = []
        for text, label in ((p.chosen, 1.0), (p.rejected, 0.0)):
            ids = [CLS_ID] + tok.encode(RESPONSE_LAYOUT.format(prefix=prefix, x=p.prompt, y=text))
            rows.append(Row(ids, (len(ids) - len(tok.encode(" " + text)), len(ids)), label, None, p.id))
        return rows
    rows = []
    for order, (a, b) in zip(ORDERS, ((p.chosen, p.rejected), (p.rejected, p.chosen))):
        swapped = order != ORDERS[0]
        if head == HEAD_POOLED:
            ids = [CLS_ID] + tok.encode(POOLED_LAYOUT.format(prefix=prefix, x=p.prompt, a=a, b=b))
            rows.append(Row(ids, None, int(swapped), order, p.id))
            continue
        filled = CANONICAL_LAYOUT.replace("[MASK]", "1").format(prefix=prefix, x=p.prompt, a=a, b=b)
        ids = [CLS_ID] + tok.encode(filled)
        ids[-2] = MASK_ID  # the verbalizer before the closing "."
        rows.append(Row(ids, len(ids) - 2, VERB2_ID if swapped else VERB1_ID, order, p.id))
    return rows


# The prefixes and layout literals are encoded once per tokenizer, so once
# a domain's first pair has rendered, a cloze or pooled pair costs three
# encodes (its prompt and two responses) and a token-level pair four (the
# prompt once for each response), and every row is still the tokenization
# of its whole rendered text (no pair is truncated here).
@pytest.mark.parametrize("head,calls", [(HEAD_MLM, 3), (HEAD_POOLED, 3), (HEAD_TOKEN, 4)])
def test_a_pair_encodes_only_its_prompt_and_responses(monkeypatch, head, calls):
    pairs = [p for task in SYNTH_TASKS for p in synth_generate(task, 4, seed=2)]
    tok = tok_for(pairs)
    tpl = ClozeTemplate(PREFIX_POOL[3], {"safety": PREFIX_POOL[2]})
    encoded = []
    encode = Tokenizer.encode
    monkeypatch.setattr(Tokenizer, "encode", lambda self, text: encoded.append(text) or encode(self, text))
    first = [render_pair(p, tpl, tok, 256, head) for p in pairs]
    for p, rows in zip(pairs, first):
        encoded.clear()
        again = render_pair(p, tpl, tok, 256, head)
        assert len(encoded) == calls
        assert again == rows == _whole_text_rows(p, tpl, tok, head)


# ------------------------------------------------------------------ jsonl


def good_line(**kw):
    base = dict(prompt="p?", chosen="a", rejected="b", domain="chat")
    base.update(kw)
    return json.dumps(base)


def test_load_jsonl_passthrough_order(tmp_path):
    path = tmp_path / "d.jsonl"
    lines = [good_line(prompt=f"q{i}") for i in range(3)]
    path.write_text("\n".join(lines) + "\n")
    pairs = load_jsonl(path)
    assert [p.prompt for p in pairs] == ["q0", "q1", "q2"]
    assert [p.id for p in pairs] == ["line1", "line2", "line3"]


def test_degenerate_pair_reported(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(good_line(chosen="same", rejected="same") + "\n")
    pairs, issues = scan_jsonl(path)
    assert pairs == []
    assert len(issues) == 1
    assert issues[0].line_no == 1
    assert "degenerate pair" in issues[0].reason


def test_crlf_equals_lf(tmp_path):
    lf = tmp_path / "lf.jsonl"
    crlf = tmp_path / "crlf.jsonl"
    body = "\n".join(good_line(prompt=f"q{i}") for i in range(3))
    lf.write_bytes((body + "\n").encode())
    crlf.write_bytes((body + "\n").replace("\n", "\r\n").encode())
    assert load_jsonl(lf) == load_jsonl(crlf)


@pytest.mark.parametrize(
    "line,needle",
    [
        ("{not json", "invalid JSON"),
        ('["a", "b"]', "not a JSON object"),
        (good_line().replace('"domain"', '"other"'), "missing key"),
        (good_line(chosen=""), "empty field"),
        (good_line(domain="cooking"), "unknown domain"),
    ],
)
def test_scan_jsonl_issue_reasons(tmp_path, line, needle):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n")
    pairs, issues = scan_jsonl(path)
    assert pairs == []
    assert len(issues) == 1 and needle in issues[0].reason


def test_strict_load_aborts_and_names_lines(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(good_line() + "\n" + "{bad\n")
    with pytest.raises(DataError, match="line 2"):
        load_jsonl(path)
    assert len(load_jsonl(path, strict=False)) == 1


def test_save_load_round_trip(tmp_path):
    pairs = synth_generate("verbosity", 20, seed=1)
    path = tmp_path / "v.jsonl"
    save_jsonl(pairs, path)
    assert load_jsonl(path) == pairs


# ------------------------------------------------------------------ synth


def test_synth_deterministic():
    for task in SYNTH_TASKS:
        assert synth_generate(task, 30, seed=9) == synth_generate(task, 30, seed=9)


def test_synth_arithmetic_sum_oracle():
    [p] = synth_generate("arithmetic", 1, seed=7)
    left, right = p.prompt.split("=")[0].split("+")
    assert int(p.chosen) == int(left) + int(right)
    assert p.rejected != p.chosen
    assert p.domain == "reasoning"


def test_synth_arithmetic_every_pair_sums(
    n=300, seed=123
):
    for p in synth_generate("arithmetic", n, seed=seed):
        left, right = p.prompt.split("=")[0].split("+")
        assert int(p.chosen) == int(left) + int(right)
        assert int(p.rejected) >= 0 and p.rejected != p.chosen


def test_synth_refusal_contains_marker():
    for p in synth_generate("refusal", 50, seed=2):
        assert REFUSAL_MARKER in p.chosen
        assert REFUSAL_MARKER not in p.rejected
        assert p.domain == "safety"


def test_synth_verbosity_domain_and_distinctness():
    for p in synth_generate("verbosity", 50, seed=3):
        assert p.domain == "chat"
        assert p.chosen != p.rejected


def test_synth_rejects_bad_args():
    with pytest.raises(ConfigError):
        synth_generate("arithmetic", 0, seed=0)
    with pytest.raises(ConfigError):
        synth_generate("poetry", 5, seed=0)


# ------------------------------------------------------------- validation


def test_preference_pair_validation():
    with pytest.raises(DataError):
        pair(chosen="")
    with pytest.raises(DataError):
        pair(chosen="x", rejected="x")
    with pytest.raises(DataError):
        pair(domain="finance")
    assert set(DOMAINS) == {"chat", "reasoning", "safety"}


def test_tokenizer_covers_all_pool_prefixes():
    pairs = synth_generate("arithmetic", 5, seed=0)
    tok = tok_for(pairs)
    for prefix in PREFIX_POOL:
        ids = tok.encode(prefix)
        assert all(i >= 6 or tok.token(i) not in ("<unk>",) for i in ids)
        assert tok.decode(ids) == prefix


def test_canonical_layout_fields():
    assert "{prefix}" in CANONICAL_LAYOUT
    assert "[MASK]" in CANONICAL_LAYOUT
    assert CANONICAL_LAYOUT.index("{a}") < CANONICAL_LAYOUT.index("{b}")
    assert CANONICAL_LAYOUT.index("{b}") < CANONICAL_LAYOUT.index("[MASK]")
