"""K-matrix handling, the recursive cascade step, and the generation loops."""
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft.analytics import ConstantModel, synthetic_pair
from specdraft.cascade import (
    CascadeConfig,
    GenerationTrace,
    KMatrix,
    autoregressive_generate,
    csd_step,
    generate,
    sd_generate,
)
from specdraft.core import (ConfigError, Context, ContractViolation, LanguageModel, RandomSource,
                            Vocab, normalize)
from specdraft.kernel import DecodeMode
from specdraft.statlm import BigramTable, MagModel, NGramModel, train_ngram


# ---------------------------------------------------------------------------
# KMatrix
# ---------------------------------------------------------------------------

def test_kmatrix_square_round_trip():
    m = KMatrix([[2, 10], [0, 10]])
    assert m.rows == ((2, 10), (10,))
    assert len(m.rows) == 2
    assert repr(m) == "KMatrix([[2, 10], [0, 10]])"
    assert m == KMatrix([[2, 10], [-7, 10]]) != KMatrix([[2, 10], [0, 9]])


def test_kmatrix_rejects_ragged_rows():
    with pytest.raises(ContractViolation):
        KMatrix([[2, 10], [0]])


def test_kmatrix_rejects_nonpositive_budget():
    with pytest.raises(ContractViolation):
        KMatrix([[0, 10], [0, 10]])
    # sub-diagonal padding is ignored, whatever its value
    KMatrix([[1, 1], [-7, 1]])


@pytest.mark.parametrize("budget", [2.7, "3", True, float("inf"), float("nan")])
def test_kmatrix_rejects_a_budget_that_is_not_an_integer(budget):
    # int() would run 2.7 as 2, "3" as 3 and True as 1, and overflow on infinity
    with pytest.raises(ContractViolation, match="row 0"):
        KMatrix([[budget]])


# ---------------------------------------------------------------------------
# csd_step
# ---------------------------------------------------------------------------

def test_base_case_mag_span_copy():
    vocab = Vocab.byte_level()
    table = BigramTable(vocab, {})
    mag = MagModel(table, span=10)
    # prefix "abcXabc": suffix "abc" matched earlier, copy continues with X...
    tok = lambda ch: vocab.id_of(ch)
    prefix = [tok(c) for c in "abcdefg"] + [tok(c) for c in "abc"]
    trace = GenerationTrace("mag")
    cfg = CascadeConfig(mag, [], KMatrix([]), DecodeMode.GREEDY, 10, 0)
    tokens, dists = csd_step(cfg, prefix, RandomSource(0), trace)
    assert len(tokens) == 10
    assert [vocab.piece_of(t) for t in tokens[:4]] == ["d", "e", "f", "g"]
    assert all(d[t] == 1.0 for t, d in zip(tokens[:4], dists))
    assert trace.calls_per_model["mag"] == 1


def test_span_drafter_stage_entry_is_a_minimum(models, eval_prompts):
    # the stage loop runs until taken >= k, and a span drafter drafts its
    # whole span per call, so a [[4]] stage over a span-10 drafter reviews 10
    cfg = CascadeConfig(models["n7"], [models["mag"]], KMatrix([[4]]),
                        DecodeMode.GREEDY, max_new_tokens=64, seed=0)
    out, trace = generate(cfg, eval_prompts[0])
    outer = [s for s in trace.steps if s.level == 0]
    assert outer and all(s.proposed == 10 for s in outer)
    assert trace.calls_per_model["mag"] == len(outer)


def test_one_level_cascade_matches_sd(models, eval_prompts):
    target, draft = models["n7"], models["n3"]
    prompt = eval_prompts[0]
    cfg = CascadeConfig(target, [draft], KMatrix([[6]]), DecodeMode.GREEDY,
                        max_new_tokens=64, seed=3)
    out_c, trace_c = generate(cfg, prompt)
    out_s, trace_s = sd_generate(target, draft, 6, 1.0, prompt, 64,
                                 DecodeMode.GREEDY, RandomSource(3))
    assert out_c == out_s
    assert trace_c.calls_per_model == trace_s.calls_per_model


def test_self_agreement_collapses_cascade():
    m = ConstantModel([0.1, 0.7, 0.2], descriptor="m")
    trace = GenerationTrace("m")
    cfg = CascadeConfig(m, [m, m], KMatrix([[2, 3], [0, 3]]), DecodeMode.GREEDY, 8, 0)
    tokens, _ = csd_step(cfg, [0], RandomSource(0), trace)
    # everything agrees, so the outer review accepts all stages plus a bonus
    outer = [s for s in trace.steps if s.level == 0]
    assert len(outer) == 1
    assert outer[0].accepted == outer[0].proposed
    assert len(tokens) == outer[0].proposed + 1
    assert trace.calls_per_model["m"] >= 1  # shared descriptor: pooled count


@pytest.mark.parametrize("mode", list(DecodeMode))
def test_sd_step_reads_each_reviewer_row_once(models, eval_prompts, monkeypatch, mode):
    # the review reads the target's lazy rows, and the step hands back those
    # same rows rather than looking each one up a second time
    target = models["n7"]
    read = []

    def row(ctx, build=target._row):
        read.append(build(ctx))
        return read[-1]

    monkeypatch.setattr(target, "_row", row)
    cfg = CascadeConfig(target, [models["n3"]], KMatrix([[6]]), mode, 7, 0)
    for seed, prompt in enumerate(eval_prompts[:6]):
        read.clear()
        trace = GenerationTrace()
        tokens, rows = csd_step(cfg, prompt, RandomSource(seed), trace)
        assert len(read) == len(rows) == len(tokens) == trace.steps[-1].accepted + 1
        assert all(a is b for a, b in zip(rows, read))


@pytest.mark.parametrize("kind", ["constant", "mag"])
def test_whole_context_reviewer_builds_only_the_rows_its_review_reads(monkeypatch, kind):
    # the draft's tokens are never the reviewer's argmax, so the review
    # rejects at position 0 and reads one of its five rows
    vocab = Vocab(tuple(f"<{i}>" for i in range(6)))
    reviewer = (ConstantModel(np.eye(6)[3] + 0.01, vocab) if kind == "constant"
                else MagModel(BigramTable.from_corpus([1, 2, 3, 1, 2, 4], vocab), span=3))
    draft = ConstantModel(np.eye(6)[5] + 0.01, vocab, descriptor="draft")
    built = []

    def distribution(context, build=reviewer.distribution):
        built.append(tuple(context))
        return build(context)

    monkeypatch.setattr(reviewer, "distribution", distribution)
    prefix = [1, 2, 3, 1, 2]
    cfg = CascadeConfig(reviewer, [draft], KMatrix([[4]]), DecodeMode.GREEDY, 8, 0)
    tokens, rows = csd_step(cfg, prefix, RandomSource(0), GenerationTrace())
    assert tokens == [3] and len(rows) == 1
    assert built == [tuple(prefix)]


#: (reviews, proposed, accepted) per (level, model) of csd-n3-n2-mag over
#: four eval prompts, recorded before `csd_step` read its ladder from the
#: config.  `level` is the recursion depth, so n2 reviews at depth 1 (a
#: stage of n7) and at depth 2 (a stage of n3)
CSD_N3_N2_MAG_TRACE = {
    ("greedy", 1.0): {(0, "n7"): (53, 934, 153), (1, "n2"): (89, 890, 85),
                      (1, "n3"): (105, 1388, 125), (2, "n2"): (155, 1550, 183)},
    ("greedy", 3.0): {(0, "n7"): (63, 1243, 141), (1, "n2"): (100, 1000, 118),
                      (1, "n3"): (112, 1486, 283), (2, "n2"): (166, 1660, 200)},
    ("sampling", 1.0): {(0, "n7"): (91, 1486, 104), (1, "n2"): (159, 1590, 62),
                        (1, "n3"): (169, 2080, 186), (2, "n2"): (285, 2850, 105)},
}


@pytest.mark.parametrize("mode,lenience", list(CSD_N3_N2_MAG_TRACE))
def test_per_depth_trace_is_pinned(models, eval_prompts, mode, lenience):
    totals = {}
    for seed, prompt in enumerate(eval_prompts[:4]):
        cfg = CascadeConfig(models["n7"], [models["n3"], models["n2"], models["mag"]],
                            KMatrix([[3, 2, 10], [0, 2, 10], [0, 0, 10]]),
                            DecodeMode(mode), 48, seed, lenience)
        for s in generate(cfg, prompt)[1].steps:
            t = totals.setdefault((s.level, s.model), [0, 0, 0])
            t[0] += 1
            t[1] += s.proposed
            t[2] += s.accepted
    assert {k: tuple(v) for k, v in totals.items()} == CSD_N3_N2_MAG_TRACE[mode, lenience]


#: (drafts, k-matrix) of the ladders the buffer contract is checked on
_LADDERS = [(["n3"], [[6]]), (["n3", "mag"], [[2, 10], [0, 10]]),
            (["n3", "n2", "mag"], [[3, 2, 10], [0, 2, 10], [0, 0, 10]])]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_csd_step_leaves_its_prefix_as_it_found_it(models, eval_prompts, data):
    # every rank drafts into one Context and cuts it back after its review; a
    # plain list is copied once at the top and never changed
    names, rows = data.draw(st.sampled_from(_LADDERS))
    mode = data.draw(st.sampled_from(list(DecodeMode)))
    lenience = 1.0 if mode is DecodeMode.SAMPLING else data.draw(st.sampled_from([1.0, 3.0]))
    cfg = CascadeConfig(models["n7"], [models[n] for n in names], KMatrix(rows), mode, 64,
                        0, lenience)
    prompt = data.draw(st.sampled_from(eval_prompts[:20]))[:data.draw(st.integers(1, 48))]
    seed = data.draw(st.integers(0, 2**16))
    plain = list(prompt)
    tokens, dists = csd_step(cfg, plain, RandomSource(seed), GenerationTrace())
    assert type(plain) is list and plain == prompt
    buf = Context(prompt)
    if data.draw(st.booleans()):
        buf.text  # a mirror synced before the step must follow the cut too
    buf_tokens, buf_dists = csd_step(cfg, buf, RandomSource(seed), GenerationTrace())
    assert buf == prompt and buf.text == "".join(map(chr, prompt))
    assert buf_tokens == tokens and len(buf_dists) == len(dists)
    assert all(np.array_equal(a, b) for a, b in zip(buf_dists, dists))


def test_csd_step_requires_prefix():
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ContractViolation):
        csd_step(CascadeConfig(m, [], KMatrix([]), DecodeMode.GREEDY, 1, 0), [],
                 RandomSource(0), GenerationTrace())


# ---------------------------------------------------------------------------
# generate / config validation
# ---------------------------------------------------------------------------

def test_generate_zero_budget():
    m = ConstantModel([0.5, 0.5])
    out, trace = generate(CascadeConfig(m, [], KMatrix([]), DecodeMode.GREEDY,
                                        max_new_tokens=0, seed=0), [0])
    assert out == [0]
    assert trace.tokens_emitted == 0
    assert trace.calls_per_model == {}


V6 = Vocab(tuple(f"<{i}>" for i in range(6)))


@pytest.mark.parametrize("prompt,bad", [([1, 99], 99), ([1, -1, 7], -1), ([1, 2000000], 2000000)])
@pytest.mark.parametrize("with_mag", [False, True], ids=["target-alone", "mag-draft"])
def test_generate_refuses_prompt_ids_outside_the_targets_vocabulary(prompt, bad, with_mag):
    # a target alone decoded these without error; a mag draft failed with a
    # bare IndexError in the review or a ValueError from chr()
    seqs = [[1, 2, 3, 1, 2, 4, 5, 0]]
    target = train_ngram(seqs, 3, V6)
    drafts = [MagModel(BigramTable.from_corpus(seqs, V6), span=4)] if with_mag else []
    cfg = CascadeConfig(target, drafts, KMatrix([[4]] if with_mag else []),
                        DecodeMode.SAMPLING, max_new_tokens=8, seed=0)
    trace = GenerationTrace()
    with pytest.raises(ContractViolation, match=rf"prompt token id {bad} out of range \[0, 6\)"):
        generate(cfg, prompt, trace)
    assert trace.calls_per_model == {} and trace.steps == []


def test_generate_without_drafts_equals_autoregressive():
    target, _ = synthetic_pair([0.5, 0.3, 0.2], 0.8)
    cfg = CascadeConfig(target, [], KMatrix([]), DecodeMode.SAMPLING,
                        max_new_tokens=32, seed=7)
    out_c, trace_c = generate(cfg, [0])
    out_a, trace_a = autoregressive_generate(target, [0], 32, DecodeMode.SAMPLING,
                                             RandomSource(7))
    assert out_c == out_a
    assert trace_c.calls_per_model == trace_a.calls_per_model


def test_config_rejects_bad_lenience():
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError):
        CascadeConfig(m, [m], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0, lenience=0.5)


def test_config_rejects_nan_lenience():
    # NaN fails every comparison, so only `not l >= 1` catches it, as in the kernel
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError, match="lenience"):
        CascadeConfig(m, [m], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0, lenience=float("nan"))


def test_config_rejects_sampling_internal_lenience():
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError):
        CascadeConfig(m, [m], KMatrix([[1]]), DecodeMode.SAMPLING, 4, 0, lenience=2.0)
    # greedy mode permits any internal lenience
    CascadeConfig(m, [m], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0, lenience=5.0)


@pytest.mark.parametrize("mode,lenience", [("greedy", 1.0), ("sampling", 5.0)])
def test_config_rejects_a_mode_that_is_not_a_decode_mode(mode, lenience):
    # "greedy" decoded as sampling, and "sampling" escaped the lenience check
    t = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError, match=f"mode '{mode}' is not a DecodeMode"):
        CascadeConfig(t, [t], KMatrix([[3]]), mode, 10, 0, lenience)


def test_config_rejects_mismatched_kmatrix():
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError):
        CascadeConfig(m, [m, m], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0)


def test_config_rejects_kmatrix_rows_without_drafts():
    # a ladder with no drafts has no stages; its rows were accepted and ignored
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError, match="1 levels for 0 drafts"):
        CascadeConfig(m, [], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0)


def test_config_is_checked_once_when_built():
    m = ConstantModel([0.5, 0.5])
    cfg = CascadeConfig(m, [m], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lenience = 0.5
    # replace builds a new config, so it is checked as any other
    with pytest.raises(ConfigError, match="lenience"):
        dataclasses.replace(cfg, lenience=0.5)
    assert dataclasses.replace(cfg, seed=3).seed == 3


def test_config_rejects_mismatched_vocab_size():
    target = ConstantModel(np.ones(4), descriptor="t")
    draft = ConstantModel(np.ones(5), descriptor="d")
    with pytest.raises(ConfigError, match="vocabulary size"):
        CascadeConfig(target, [draft], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0)
    with pytest.raises(ConfigError, match="vocabulary size"):
        sd_generate(target, draft, 2, 1.0, [0], 4, DecodeMode.GREEDY)
    # sizes are compared, not pieces: a remote client's placeholder pieces pass
    renamed = ConstantModel(np.ones(4), vocab=Vocab(("a", "b", "c", "d")))
    CascadeConfig(target, [renamed], KMatrix([[1]]), DecodeMode.GREEDY, 4, 0)


def test_sd_generate_validates_like_any_cascade():
    m = ConstantModel([0.5, 0.5])
    with pytest.raises(ConfigError, match="exactness"):
        sd_generate(m, m, 2, 2.0, [0], 4, DecodeMode.SAMPLING)
    with pytest.raises(ConfigError):
        sd_generate(m, m, 2, 0.5, [0], 4, DecodeMode.GREEDY)


def test_stop_token_truncates_mid_review():
    # target deterministically emits token 1; stopping on it ends the run
    m = ConstantModel([0.1, 0.8, 0.1])
    cfg = CascadeConfig(m, [m], KMatrix([[4]]), DecodeMode.GREEDY,
                        max_new_tokens=50, seed=0, stop_tokens=frozenset({1}))
    out, trace = generate(cfg, [0])
    assert out == [0, 1]
    assert trace.tokens_emitted == 1
    # a prompt that ends in a stop token still decodes: only emitted tokens
    # stop a run, and the budget counts from the prompt's end
    for prompt, stops, budget, new in [([1], {1}, 50, [1]), ([0, 2], {2}, 5, [1] * 5)]:
        cfg = CascadeConfig(m, [m], KMatrix([[4]]), DecodeMode.GREEDY,
                            max_new_tokens=budget, seed=0, stop_tokens=frozenset(stops))
        out, trace = generate(cfg, prompt)
        assert out == prompt + new
        assert trace.tokens_emitted == len(new)


#: sha256 of the outputs below, recorded while drafting still called
#: `evaluate` and summed each row afresh for every sampled token
SAMPLED_SD_SHA256 = "de62e3b2e0976b32218f446a180329d3ec7fc555245bcb22293dcdf28b9f119a"


def test_sampled_sd_output_is_pinned(models, eval_prompts):
    # no shipped config samples, so this pins the sampled bits: the drafter's
    # tokens and rows, the review's draws and their order
    outs = [sd_generate(models["n7"], models["n3"], 6, 1.0, prompt, 64,
                        DecodeMode.SAMPLING, RandomSource(seed))[0]
            for seed, prompt in enumerate(eval_prompts[:8])]
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == SAMPLED_SD_SHA256


#: sha256 of the outputs below, recorded before one pick rule replaced the three
#: hooks `_cdf`, `_argmax` and `_residual_draw`
SAMPLED_CASCADE_SHA256 = "d4b2ad39a18fd5c1b86aaa3a02bddea157e4c906b1317d84c292c94d86d93dac"


def test_sampled_cascade_output_is_pinned(models, eval_prompts):
    # n7 <- [n3, mag] samples what n7 <- n3 never does: `mag`'s fallback
    # draws from the bigram table's kept sums, and rejections of `mag`'s
    # one-hot rows; models that share the shipped tables start with no row kept
    n7, n3, bigram = (models[name] for name in ("n7", "n3", "bigram"))
    n7 = NGramModel(7, n7.vocab, n7.tables, descriptor="n7")
    n3 = NGramModel(3, n3.vocab, n3.tables, descriptor="n3")
    table = BigramTable(bigram.vocab, bigram.tables)
    ladder = [n3, MagModel(table, span=10, descriptor="mag")]
    outs = [generate(CascadeConfig(n7, ladder, KMatrix([[2, 10], [0, 10]]), DecodeMode.SAMPLING,
                                   64, seed), prompt)[0]
            for seed, prompt in enumerate(eval_prompts[:8])]
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == SAMPLED_CASCADE_SHA256
    assert any(r.sums is not None for r in table._cache.values())
    for reviewer in (n7, n3):
        qs = [q for r in reviewer._cache.values() for _, _, q in (r.residuals or {}).values()]
        assert any(q.max() == 1.0 for q in qs) and any(q.max() < 1.0 for q in qs)


#: sha256 of the outputs below, recorded while a reviewer's kept values
#: still lived in an id-keyed table of its model
SAMPLED_INNER_BONUS_SHA256 = "f49f6b5d86ec3cd570c0839e00f175a75cd4b8e57bef2636fd18f2d198116271"


def test_sampled_inner_bonus_output_is_pinned(models, eval_prompts):
    # n3 reviewing n2's two tokens accepts them all and draws a bonus token
    # from its own row, which no other pin reaches: n7 <- [n3, mag] at span
    # 10 has no inner review that accepts its whole draft
    n7, n3, n2 = (NGramModel(m.order, m.vocab, m.tables, descriptor=m.descriptor)
                  for m in (models[name] for name in ("n7", "n3", "n2")))
    outs, whole = [], 0
    for seed, prompt in enumerate(eval_prompts[:8]):
        out, trace = generate(CascadeConfig(n7, [n3, n2], KMatrix([[2, 2], [0, 2]]),
                                            DecodeMode.SAMPLING, 64, seed), prompt)
        outs.append(out)
        whole += sum(s.level >= 1 and s.accepted == s.proposed for s in trace.steps)
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == SAMPLED_INNER_BONUS_SHA256
    assert whole > 0


class _FreshRows(LanguageModel):
    """`model`'s rows, each a new writeable copy, as a remote model's are."""

    def __init__(self, model):
        super().__init__(model.vocab, model.cost_weight, "fresh-" + model.descriptor)
        self.model, self.window = model, model.window

    def distribution(self, context):
        return self.model.distribution(context).copy()


def test_fresh_proposal_rows_are_drawn_as_kept_ones(models, eval_prompts):
    # an n-gram reviewer keeps a residual table only for read-only proposal
    # rows; fresh ones are drawn from the residual row, with the same tokens
    n7 = models["n7"]
    reviewer = NGramModel(7, n7.vocab, n7.tables, descriptor="n7")
    outs = [sd_generate(reviewer, _FreshRows(models["n3"]), 6, 1.0, prompt, 64,
                        DecodeMode.SAMPLING, RandomSource(seed))[0]
            for seed, prompt in enumerate(eval_prompts[:8])]
    assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == SAMPLED_SD_SHA256
    assert reviewer._cache and not any(r.residuals for r in reviewer._cache.values())
    sd_generate(reviewer, models["n3"], 6, 1.0, eval_prompts[0], 64, DecodeMode.SAMPLING,
                RandomSource(0))
    assert any(r.residuals for r in reviewer._cache.values())  # the shipped n3's rows are kept


def test_autoregressive_call_accounting():
    m = ConstantModel([0.2, 0.8], descriptor="t")
    out, trace = autoregressive_generate(m, [0], 16)
    assert trace.calls_per_model["t"] == trace.tokens_emitted == 16
    assert trace.cost_units == 16.0


def test_cost_units_matches_call_counts(models, eval_prompts):
    cfg = CascadeConfig(models["n7"], [models["n3"], models["mag"]],
                        KMatrix([[2, 10], [0, 10]]), DecodeMode.GREEDY,
                        max_new_tokens=48, seed=1)
    _, trace = generate(cfg, eval_prompts[1])
    expect = sum(n * trace.cost_weights[m] for m, n in trace.calls_per_model.items())
    assert trace.cost_units == expect
    # target calls = number of outermost reviews
    outer = [s for s in trace.steps if s.level == 0]
    assert trace.calls_per_model["n7"] == len(outer)


def test_generate_into_one_trace_adds_up_two_fresh_traces(models, eval_prompts):
    cfg = CascadeConfig(models["n7"], [models["n3"], models["mag"]],
                        KMatrix([[2, 10], [0, 10]]), DecodeMode.GREEDY,
                        max_new_tokens=48, seed=1)
    (out_a, a), (out_b, b) = (generate(cfg, p) for p in eval_prompts[:2])
    both = GenerationTrace("n7")
    assert [generate(cfg, p, both) for p in eval_prompts[:2]] == [(out_a, both), (out_b, both)]
    assert both.tokens_emitted == a.tokens_emitted + b.tokens_emitted
    assert both.calls_per_model == {m: a.calls_per_model.get(m, 0) + b.calls_per_model.get(m, 0)
                                    for m in {**a.calls_per_model, **b.calls_per_model}}
    assert both.steps == a.steps + b.steps
    assert both.cost_units == a.cost_units + b.cost_units


def test_nondeterministic_model_warning():
    m = ConstantModel([0.5, 0.5], descriptor="flaky")
    m.deterministic = False
    # one model at two ranks, and a second decode into the same trace
    cfg = CascadeConfig(m, [m], KMatrix([[2]]), DecodeMode.GREEDY, 2, 0)
    _, trace = generate(cfg, [0])
    generate(cfg, [1], trace)
    assert len(trace.warnings) == 1 and "flaky" in trace.warnings[0]


def test_sd_generate_full_acceptance_call_count():
    target = ConstantModel([0.1, 0.9], descriptor="t")
    draft = ConstantModel([0.1, 0.9], descriptor="d")
    out, trace = sd_generate(target, draft, 4, 1.0, [0], 40, DecodeMode.GREEDY)
    # every step emits k+1 tokens, so target calls = ceil(40 / 5)
    assert trace.calls_per_model["t"] == 8
    assert trace.calls_per_model["d"] == 32


def test_greedy_cascade_matches_target_small(models, eval_prompts):
    # the acceptance suite runs the full sweep; spot-check one config here
    target = models["n7"]
    prompt = eval_prompts[2]
    ref, _ = autoregressive_generate(target, prompt, 48)
    cfg = CascadeConfig(target, [models["n3"], models["mag"]],
                        KMatrix([[2, 10], [0, 10]]), DecodeMode.GREEDY,
                        max_new_tokens=48, seed=9, lenience=3.0)
    out, trace = generate(cfg, prompt)
    assert out == ref


# ---------------------------------------------------------------------------
# property: every cascade shape, SD and target-only decoding share one core
# ---------------------------------------------------------------------------

@st.composite
def _cascade_runs(draw):
    v = draw(st.integers(2, 6))
    vocab = Vocab(tuple(f"<{i}>" for i in range(v)))
    tokens = st.integers(0, v - 1)

    def model(descriptor):
        corpus = draw(st.lists(tokens, min_size=2, max_size=30))
        return train_ngram(corpus, draw(st.integers(1, 4)), vocab, descriptor=descriptor)

    target = model("t")
    n = draw(st.integers(0, 3))
    drafts = [model(f"d{i}") for i in range(n)]
    if n and draw(st.booleans()):
        # a span drafter at the bottom; its span may fall below, equal or
        # exceed the stage budgets it fills
        table = BigramTable.from_corpus(draw(st.lists(tokens, min_size=2, max_size=30)),
                                        vocab)
        drafts[-1] = MagModel(table, span=draw(st.integers(1, 5)), descriptor=f"d{n - 1}")
    k_matrix = [[draw(st.integers(1, 4)) if j >= i else 0 for j in range(n)]
                for i in range(n)]
    mode = draw(st.sampled_from(DecodeMode))
    # sampling is exact only at lenience 1, and validate refuses any other
    lenience = draw(st.floats(1.0, 4.0)) if mode is DecodeMode.GREEDY else 1.0
    config = CascadeConfig(target, drafts, KMatrix(k_matrix), mode,
                           max_new_tokens=draw(st.integers(1, 24)),
                           seed=draw(st.integers(0, 2**16)),
                           lenience=lenience,
                           stop_tokens=frozenset({draw(tokens)}))
    return config, draw(st.lists(tokens, min_size=1, max_size=6))


@settings(max_examples=50, deadline=None)
@given(_cascade_runs())
def test_one_core_invariants(run):
    config, prompt = run
    out, trace = generate(config, prompt)
    new = out[len(prompt):]
    # the rules perfbench's check_sampled applies, here in both modes
    assert out[:len(prompt)] == prompt
    stops = [i for i, t in enumerate(new) if t in config.stop_tokens]
    assert not stops or stops[0] == len(new) - 1
    assert len(new) == config.max_new_tokens or (stops and len(new) < config.max_new_tokens)
    assert trace.tokens_emitted == len(new)
    assert all(s.accepted <= s.proposed for s in trace.steps)
    if config.mode is DecodeMode.GREEDY:
        ref, _ = autoregressive_generate(config.target, prompt, config.max_new_tokens,
                                         DecodeMode.GREEDY,
                                         stop_tokens=config.stop_tokens)
        assert out == ref
    per_review = [s.accepted + 1 for s in trace.steps if s.level == 0]
    if config.drafts:
        # every outermost review but the last emits accepted + 1 tokens; the
        # last may be cut by the budget or a stop token
        assert sum(per_review[:-1]) < len(new) <= sum(per_review)
        assert trace.calls_per_model["t"] == len(per_review)
    else:
        # target-only decoding: one proposal per call, no review
        assert per_review == []
        assert trace.calls_per_model["t"] == len(new)
    weights = {m.descriptor: m.cost_weight for m in [config.target] + config.drafts}
    assert trace.cost_units == sum(n * weights[m] for m, n in trace.calls_per_model.items())
