"""N-gram training, the bigram table, suffix-copy drafting, serialization."""
import hashlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft.core import (
    ConstructionError,
    Context,
    ContractViolation,
    KeptRow,
    RandomSource,
    TrainingError,
    Vocab,
    greedy_token,
    pick,
    rejection_row,
    sample,
)
from specdraft.cascade import CascadeConfig, KMatrix, generate, sd_generate
from specdraft.kernel import DecodeMode
from specdraft.statlm import (
    DEFAULT_INTERPOLATION,
    BigramTable,
    MagModel,
    NGramModel,
    mag_propose,
    model_from_dict,
    model_to_dict,
    load_model,
    save_model,
    train_ngram,
)

V6 = Vocab(tuple(f"<{i}>" for i in range(6)))


def _brute_force_mag(generated, corpus, n):
    """Independent oracle: longest suffix via bytes.find (first occurrence)."""
    cb = bytes(corpus)
    for m in range(len(generated), 0, -1):
        i = cb.find(bytes(generated[-m:]))
        if i >= 0:
            return list(corpus[i + m:i + m + n])
    return None


# ---------------------------------------------------------------------------
# n-gram training
# ---------------------------------------------------------------------------

def test_train_ngram_alternating_pattern():
    a, b = 3, 4
    m = train_ngram([a, b, a, b, a, b], 2, V6)
    assert m.tables[(a,)] == {b: 1.0}
    assert m.tables[(b,)] == {a: 1.0}
    # smoothing leaves the ML winner dominant
    assert int(np.argmax(m.distribution([a]))) == b


def test_train_order1_is_unigram():
    m = train_ngram([1, 1, 1, 2], 1, V6)
    assert m.tables[()] == {1: 0.75, 2: 0.25}


def test_train_empty_corpus():
    with pytest.raises(TrainingError):
        train_ngram([], 2, V6)
    with pytest.raises(TrainingError):
        train_ngram([[], []], 2, V6)


def test_ngram_distributions_normalized_everywhere():
    m = train_ngram([1, 2, 3, 4], 3, V6)
    for ctx in ([], [5], [5, 5], [1, 2]):
        d = m.distribution(ctx)
        assert abs(d.sum() - 1.0) < 1e-9
        assert np.all(d > 0)  # interpolation keeps full support


def _textbook_tables(seqs, lengths):
    """Per-position count: each token of each sequence, once under each of
    its preceding contexts of a length in `lengths`, as probabilities in
    token order."""
    counts = {}
    for seq in seqs:
        for i, tok in enumerate(seq):
            for n in lengths:
                if n <= i:
                    row = counts.setdefault(tuple(seq[i - n:i]), {})
                    row[tok] = row.get(tok, 0) + 1
    return {ctx: {tok: c / sum(row.values()) for tok, c in sorted(row.items())}
            for ctx, row in counts.items()}


_corpora = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=30),
    st.lists(st.lists(st.integers(0, 5), max_size=10), min_size=1, max_size=5))


@given(_corpora, st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_counting_matches_textbook_per_position_count(corpus, order):
    seqs = [corpus] if isinstance(corpus[0], int) else [s for s in corpus if s]
    if not seqs:
        for count in (lambda: train_ngram(corpus, order, V6),
                      lambda: BigramTable.from_corpus(corpus, V6)):
            with pytest.raises(TrainingError):
                count()
        return
    for tables, lengths in ((train_ngram(corpus, order, V6).tables, range(order)),
                            (BigramTable.from_corpus(corpus, V6).tables, (1,))):
        # equal tables, and each row's tokens in the same (ascending) order
        assert ({ctx: list(row.items()) for ctx, row in tables.items()}
                == {ctx: list(row.items())
                    for ctx, row in _textbook_tables(seqs, lengths).items()})


def _rows(tables, keep=lambda ctx: True):
    """`tables` with each row as its (token, probability) list, in row order."""
    return {ctx: list(row.items()) for ctx, row in tables.items() if keep(ctx)}


def _assert_counts_agree_across_orders(corpus, orders, vocab):
    """Each order's tables are the contexts of the longest order's tables
    shorter than it, and the bigram table its contexts of length 1."""
    longest = train_ngram(corpus, max(orders), vocab).tables
    for a in orders:
        assert _rows(train_ngram(corpus, a, vocab).tables) == _rows(
            longest, lambda ctx: len(ctx) < a)
    assert _rows(BigramTable.from_corpus(corpus, vocab).tables) == _rows(
        longest, lambda ctx: len(ctx) == 1)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_counts_agree_across_orders(data):
    # shorter contexts are derived from the longest grams' counts, so a
    # line-end or boundary slip in that derivation shows as a disagreement
    b = data.draw(st.integers(2, 8), label="b")
    a = data.draw(st.integers(1, b - 1), label="a")
    # lines shorter than, as long as and longer than each order
    corpus = data.draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=b + 2),
                                min_size=1, max_size=6), label="corpus")
    _assert_counts_agree_across_orders(corpus, (a, b), V6)


def test_counts_agree_across_orders_on_the_shipped_corpus(corpus):
    train_seqs, _, vocab, _ = corpus
    _assert_counts_agree_across_orders(train_seqs, (2, 3, 7), vocab)


def test_ngram_loop_vs_batch():
    m = train_ngram([1, 2, 3, 1, 2, 4], 3, V6)
    tokens = [1, 2, 3, 1]
    batch = m.evaluate(tokens, 1)
    for p, d in enumerate(batch, start=1):
        assert np.array_equal(d, m.distribution(tokens[: p - 1]))


def _textbook_row(model, context):
    """Uncached interpolation fold over every suffix of the last order-1
    tokens, shortest first, skipping suffixes without a table."""
    ctx = tuple(context[max(0, len(context) - model.order + 1):])
    size = model.vocab.size
    dist = np.full(size, 1.0 / size)
    for n in range(len(ctx) + 1):
        row = model.tables.get(ctx[len(ctx) - n:])
        if row is not None:
            ml = np.zeros(size)
            for tok, p in row.items():
                ml[tok] = p
            dist = model.interpolation * ml + (1.0 - model.interpolation) * dist
    return dist


def _draw_table_model(data, corpus, order, vocab):
    """A maker of one drawn table model of `corpus`: the order-`order` n-gram
    at the default interpolation weight or at weight 1, or the bigram table."""
    kind = data.draw(st.sampled_from(["ngram", "ngram-w1", "bigram"]), label="model")
    if kind == "bigram":
        return lambda: BigramTable.from_corpus(corpus, vocab)
    w = 1.0 if kind == "ngram-w1" else DEFAULT_INTERPOLATION
    return lambda: train_ngram(corpus, order, vocab, interpolation=w)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ngram_shared_rows_match_textbook_fold(data):
    order = data.draw(st.integers(1, 7), label="order")
    size = data.draw(st.integers(2, 6), label="V")
    vocab = Vocab(tuple(f"<{i}>" for i in range(size)))
    # the last token never occurs in training, so queries meet unseen tokens
    corpus = data.draw(st.lists(st.integers(0, size - 2), min_size=1, max_size=40),
                       label="corpus")
    bigram = data.draw(st.booleans(), label="bigram")
    tables = (BigramTable.from_corpus(corpus, vocab) if bigram
              else train_ngram(corpus, order, vocab)).tables
    # dropping tables leaves longer contexts tabled whose suffixes are not
    dropped = (data.draw(st.sets(st.sampled_from(sorted(tables))), label="dropped")
               if tables else set())  # a one-token corpus has no bigram
    kept = {c: r for c, r in tables.items() if c not in dropped}
    model = (BigramTable(vocab, kept) if bigram else NGramModel(
        order, vocab, kept, data.draw(st.sampled_from([0.3, 0.75, 0.9, 1.0]), label="w")))
    seqs = data.draw(st.lists(st.lists(st.integers(0, size - 1), max_size=12),
                              min_size=1, max_size=4), label="seqs")
    queries = [(i, start) for i, seq in enumerate(seqs) for start in range(1, len(seq) + 2)]
    queries += [(i, None) for i in range(len(seqs))]
    for i, start in data.draw(st.permutations(queries), label="order of queries"):
        seq = seqs[i]
        if start is None:
            for cut in range(len(seq) + 1):
                row = model.distribution(seq[:cut])
                assert np.array_equal(row, _textbook_row(model, seq[:cut]))
        else:
            rows = model.evaluate(seq, start)
            assert len(rows) == len(seq) + 2 - start
            for p, row in enumerate(rows, start=start):
                assert np.array_equal(row, _textbook_row(model, seq[:p - 1]))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ngram_evaluate_reads_the_per_position_rows(data):
    order = data.draw(st.integers(1, 7), label="order")
    corpus = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=40), label="corpus")
    # contexts shorter and longer than the order - 1 token window
    tokens = data.draw(st.lists(st.integers(0, 5), max_size=14), label="tokens")
    model = _draw_table_model(data, corpus, order, V6)()
    if data.draw(st.booleans(), label="whole context"):
        # the suffix-copy drafter reads every context token through the same rows
        model = MagModel(BigramTable.from_corpus(corpus, V6))
    shuffle = data.draw(st.randoms(use_true_random=False), label="read order").shuffle
    for start in range(1, len(tokens) + 2):
        rows = model.evaluate(tokens, start)
        n = len(tokens) + 2 - start
        # read in a drawn order, so rows are built in it too
        reads = list(range(-n, n))
        shuffle(reads)
        got = {i: rows[i] for i in reads}
        want = [model.distribution(tokens[:p - 1]) for p in range(start, len(tokens) + 2)]
        assert len(rows) == n
        assert all(got[i] is want[i] for i in reads)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[i]
        assert [id(r) for r in rows] == [id(r) for r in want]
        ends = (None, 0, 1, n - 1, n + 1, -1, -n - 1)
        for cut in (slice(a, b, c) for a in ends for b in ends for c in (None, 2, -1, -3)):
            assert [id(r) for r in rows[cut]] == [id(r) for r in want[cut]]


def test_ngram_evaluate_keeps_its_rows_when_the_tokens_change():
    model = train_ngram([1, 2, 3, 1, 2, 4, 1, 3], 3, V6)
    tokens = [1, 2, 3, 1]
    rows = model.evaluate(tokens, 2)
    want = [model.distribution(tokens[:p - 1]) for p in range(2, 6)]
    tokens[:] = [5, 5, 5, 5, 5]
    assert len(rows) == 4 and all(a is b for a, b in zip(rows, want))
    # the change would have moved every row
    assert all(model.distribution(tokens[:p - 1]) is not w for p, w in zip(range(2, 6), want))


def test_ngram_evaluate_builds_only_the_rows_read(corpus):
    # a review stops at its first rejection, so later rows are never built,
    # by an n-gram reviewer or by a bigram one
    train_seqs, eval_seqs, vocab, _ = corpus
    seq, start = eval_seqs[0][:60], 30
    for model in (train_ngram(train_seqs[:200], 7, vocab),
                  BigramTable.from_corpus(train_seqs[:200], vocab)):
        rows = model.evaluate(seq, start)
        assert model._cache == {}
        rows[0]
        n = model.order
        first = tuple(seq[start - n:start - 1])
        # a later position whose context equals the first one's shares its row
        later = {tuple(seq[p - n:p - 1]) for p in range(start + 1, len(seq) + 2)} - {first}
        assert first in model._cache and len(model._cache) <= 2
        assert not later & set(model._cache)


def test_ngram_caches_one_row_per_tabled_context(corpus):
    train_seqs, eval_seqs, vocab, _ = corpus
    model = train_ngram(train_seqs, 7, vocab)
    for j, seq in enumerate(eval_seqs[:40]):
        model.propose(seq[:32], 48, RandomSource(j), greedy=False)
        list(model.evaluate(seq, 1))
    distinct = {id(row) for row in model._cache.values()}
    assert len(distinct) <= len(model.tables) + 1
    assert len(model._cache) > len(distinct)  # some rows really are shared


def _per_token_ngram_propose(model, context, budget, rng, greedy):
    """Reference drafting loop: one `evaluate` and one fresh inverse-CDF
    sample per token."""
    cur, out, dists = list(context), [], []
    for _ in range(budget):
        d = model.evaluate(cur, len(cur) + 1)[0]
        tok = greedy_token(d) if greedy else sample(d, rng)
        out.append(tok)
        dists.append(d)
        cur.append(tok)
    return out, dists


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_ngram_propose_matches_per_token_evaluate_loop(data):
    order = data.draw(st.integers(1, 7), label="order")
    size = data.draw(st.integers(2, 6), label="V")
    vocab = Vocab(tuple(f"<{i}>" for i in range(size)))
    corpus = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=40),
                       label="corpus")
    # contexts shorter and longer than the order - 1 token window
    context = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12),
                        label="context")
    budget = data.draw(st.integers(1, 12), label="budget")
    greedy = data.draw(st.booleans(), label="greedy")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    # two models, so the drafting path builds its own rows and sums
    make = _draw_table_model(data, corpus, order, vocab)
    model, ref = make(), make()
    rng, ref_rng = RandomSource(seed), RandomSource(seed)
    out, dists = model.propose(context, budget, rng, greedy)
    ref_out, ref_dists = _per_token_ngram_propose(ref, context, budget, ref_rng, greedy)
    assert out == ref_out
    assert len(out) // model.span == budget  # one model call per token
    assert len(dists) == budget
    assert all(np.array_equal(a, b) for a, b in zip(dists, ref_dists))
    # the same number of uniform draws was consumed
    assert rng.uniform() == ref_rng.uniform()


def _assert_kept_values_are_their_rows(model):
    """Every cached row is kept, holding what it gives now: its greedy token,
    its sums if kept, and each residual table as the row and its read-only
    `q` build it."""
    for p in model._cache.values():
        assert type(p) is KeptRow and p.top == greedy_token(p)
        assert p.sums is None or list(p.sums) == p.cumsum().tolist()
        for q_id, (cut, ids, q) in (p.residuals or {}).items():
            assert id(q) == q_id and not q.flags.writeable
            row = rejection_row(p, q)
            at = np.flatnonzero(row)
            assert cut == row.cumsum()[at].tolist() and ids == [*at.tolist(), at[-1]]


def test_kept_sums_and_residual_tables_are_their_rows(models, eval_prompts):
    # after a sampled n7 <- n3 decode, every kept sum is its row's, and
    # every kept residual table is the one its row pair builds now
    for seed, prompt in enumerate(eval_prompts[:8]):
        sd_generate(models["n7"], models["n3"], 6, 1.0, prompt, 64, DecodeMode.SAMPLING,
                    RandomSource(seed))
    assert any(r.sums is not None for r in models["n3"]._cache.values())
    assert any(r.residuals for r in models["n7"]._cache.values())
    for name in ("n7", "n3", "n2", "bigram"):
        _assert_kept_values_are_their_rows(models[name])


def test_kept_argmaxes_are_their_rows_greedy_tokens(models, eval_prompts):
    # after a greedy n7 <- [n3, n2, mag] decode, every cached row keeps the
    # greedy token of its own values
    n7, n3, n2, mag = (models[name] for name in ("n7", "n3", "n2", "mag"))
    config = CascadeConfig(n7, [n3, n2, mag], KMatrix([[3, 2, 10], [0, 2, 10], [0, 0, 10]]),
                           DecodeMode.GREEDY, 64, 0)
    for prompt in eval_prompts[:8]:
        generate(config, prompt)
    for model in (n7, n3, n2, mag.fallback):
        assert model._cache
        _assert_kept_values_are_their_rows(model)


def test_a_tied_row_keeps_its_lowest_id_and_a_writeable_row_keeps_nothing():
    model = NGramModel(2, V6, {(0,): {2: 0.5, 4: 0.5}}, interpolation=1.0)
    tied, uniform = model.distribution([0]), model.distribution([3])
    assert (tied.top, uniform.top) == (2, 0)
    assert {id(r) for r in model._cache.values()} == {id(tied), id(uniform)}
    assert pick(tied, None, True) == 2 and pick(uniform, None, True) == 0
    fresh = np.array([0.1, 0.2, 0.0, 0.0, 0.7, 0.0])  # may be new on every call
    assert pick(fresh, None, True) == 4
    assert pick(fresh, RandomSource(0), False) == sample(fresh, RandomSource(0))
    assert not hasattr(fresh, "top") and tied.sums is None and uniform.sums is None


def test_concurrent_readers_get_the_row_the_cache_holds(models, corpus):
    # four readers that miss one tabled context each build its row; the first
    # row stored wins, under the tabled context and under each alias, so every
    # reader gets the one row the cache holds, which keeps its own argmax
    _, eval_seqs, _, _ = corpus
    contexts = list(dict.fromkeys(tuple(seq[i:i + 6]) for seq in eval_seqs
                                  for i in range(len(seq) - 6)))
    assert len(contexts) == 710
    n7 = models["n7"]
    for _ in range(10):
        model = NGramModel(7, n7.vocab, n7.tables, descriptor="n7")
        start = threading.Barrier(4, timeout=60)

        def read(t):
            cut = t * len(contexts) // 4  # staggered starts
            start.wait()
            return [(ctx, model._row(ctx)) for ctx in contexts[cut:] + contexts[:cut]]

        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(read, range(4)))
        for ctx, row in (pair for rows in got for pair in rows):
            key = next((ctx[i:] for i in range(len(ctx)) if ctx[i:] in model.tables), ())
            assert row is model._cache[ctx] is model._cache[key]
        assert all(row.top == greedy_token(row) for row in model._cache.values())


def _kept_sums(model):
    return {id(r): r.sums for r in model._cache.values() if r.sums is not None}


def test_ngram_keeps_one_cdf_per_shared_row(corpus):
    train_seqs, eval_seqs, vocab, _ = corpus
    model = train_ngram(train_seqs, 3, vocab)
    drafted = {}
    for j, seq in enumerate(eval_seqs[:40]):
        _, dists = model.propose(seq[:32], 48, RandomSource(j), greedy=False)
        drafted.update((id(d), d) for d in dists)
    # keyed by row, not by context: many contexts share a row and its sums
    kept = _kept_sums(model)
    assert set(kept) == set(drafted)
    assert len(kept) < len(model._cache)
    for key, cdf in kept.items():
        assert np.array_equal(cdf, drafted[key].cumsum())
    # greedy drafting reads no sums, so it keeps none
    greedy = train_ngram(train_seqs, 3, vocab)
    greedy.propose(eval_seqs[0][:32], 48, RandomSource(0), greedy=True)
    assert greedy._cache and _kept_sums(greedy) == {}


def test_ngram_rows_are_read_only():
    model = train_ngram([1, 2, 3, 1, 2, 4], 3, V6)
    rows = [model.distribution([1, 2]), model.distribution([5, 5])] + list(model.evaluate([1, 2], 1))
    for row in rows:
        with pytest.raises(ValueError):
            row[0] = 0.5


def test_every_model_types_rows_are_read_only():
    # a row is cached and shared by later calls, so writing into one would
    # change what every later call returns
    from specdraft.analytics import ConstantModel
    table = BigramTable.from_corpus([1, 2, 1, 3], V6)
    bigram, mag, const = table, MagModel(table, span=3), ConstantModel([1.0, 3.0])
    rows = [bigram.distribution([]), bigram.distribution([1]), bigram.distribution([5]),
            mag.distribution([1, 2, 1]), mag.distribution([4]), const.distribution([0]),
            *mag.propose([1, 2, 1], 3, RandomSource(0), True)[1]]
    for row in rows:
        with pytest.raises(ValueError):
            row[0] = 0.5
    assert bigram.distribution([5]).sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# bigram table
# ---------------------------------------------------------------------------

def test_bigram_rows_and_fallback():
    t = BigramTable.from_corpus([1, 2, 1, 3], V6)
    row = t.distribution([1])
    assert row[2] == 0.5 and row[3] == 0.5
    assert np.allclose(t.distribution([5]), np.full(6, 1 / 6))  # never a predecessor


#: sha256 of the bigram table's rows over data/train.txt, recorded before the
#: table became the order-2 n-gram at weight 1
BIGRAM_ROWS_SHA256 = "c3aa7b4a65ed16c55bebe85936733d134dcac9bc81ebb4799f4abc11987b1046"


def test_bigram_rows_keep_their_bytes(corpus):
    train_seqs, _, vocab, _ = corpus
    table = BigramTable.from_corpus(train_seqs, vocab)
    tokens = range(vocab.size)
    rows = ([table.distribution([])] + [table.distribution([i]) for i in tokens]
            + [table.distribution([5, i]) for i in tokens] + [table.distribution([i]) for i in tokens])
    assert hashlib.sha256(b"".join(r.tobytes() for r in rows)).hexdigest() == BIGRAM_ROWS_SHA256


def test_bigram_model_empty_context():
    m = BigramTable.from_corpus([1, 2], V6)
    assert np.allclose(m.distribution([]), np.full(6, 1 / 6))
    assert m.distribution([1])[2] == 1.0


# ---------------------------------------------------------------------------
# mag_propose
# ---------------------------------------------------------------------------

def test_mag_propose_basic_match():
    assert mag_propose([9, 2, 3], [1, 2, 3, 4], 1) == [4]


def test_mag_propose_no_occurrence():
    assert mag_propose([7, 8, 9], [1, 2, 3], 2) is None


def test_mag_propose_tie_break_first_occurrence():
    # longest suffix [5,5] first occurs at index 0; next token is corpus[2]=5
    assert mag_propose([5, 5], [5, 5, 5, 6], 1) == [5]


def test_mag_propose_truncated_at_corpus_end():
    # the match runs to the corpus boundary: nothing follows it
    assert mag_propose([1, 2], [0, 1, 2], 3) == []
    assert mag_propose([1, 2], [0, 1, 2, 7, 8, 9], 3) == [7, 8, 9]


def test_mag_propose_argument_checks():
    with pytest.raises(ContractViolation):
        mag_propose([], [1, 2], 1)
    with pytest.raises(ContractViolation):
        mag_propose([1], [1, 2], 0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mag_propose_matches_oracle(data):
    v = data.draw(st.integers(2, 16))
    corpus = data.draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=64))
    generated = data.draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=64))
    n = data.draw(st.integers(1, 8))
    assert mag_propose(generated, corpus, n) == _brute_force_mag(generated, corpus, n)


#: token ids the suffix matcher must handle that `bytes` cannot hold, or that
#: are specials: bos, eos and unk, byte-level ids 256-258, a lone surrogate,
#: and the last code point
_WIDE_IDS = (0, 1, 2, 256, 257, 258, 0xD800, sys.maxunicode)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_suffix_matcher_matches_oracle_on_wide_ids(data):
    # the oracle searches bytes, so it runs on small labels that map one to
    # one onto wide ids; the matcher's answer does not depend on the labels
    ids = data.draw(st.permutations(_WIDE_IDS))
    v = data.draw(st.integers(1, len(ids) - 1))
    labels = st.integers(0, v - 1)
    # a repeated block gives matches whose length crosses powers of two and
    # reaches len - 1; a last label never seen before has no match at all
    block = data.draw(st.lists(labels, min_size=1, max_size=12))
    context = (block * data.draw(st.integers(1, 40)))[:150] + data.draw(
        st.lists(labels, max_size=3))
    if data.draw(st.booleans()):
        context.append(v)
    corpus = data.draw(st.lists(labels, max_size=64)) + context[:data.draw(st.integers(0, 80))]
    n = data.draw(st.integers(1, 12))
    wide = lambda labelled: None if labelled is None else [ids[t] for t in labelled]
    for generated, searched in ((context, context[:-1]), (context, corpus)):
        expected = wide(_brute_force_mag(generated, searched, n))
        assert mag_propose(wide(generated), wide(searched), n) == expected
        assert mag_propose(Context(wide(generated)), Context(wide(searched)), n) == expected


def test_suffix_matcher_finds_a_match_of_every_length_up_to_len_minus_one():
    for length in range(1, 70):
        context = [257] * length
        assert mag_propose(context, context[:-1], 2) == (None if length == 1 else [])
        assert mag_propose(context + [258], context, 1) is None


# ---------------------------------------------------------------------------
# MagModel
# ---------------------------------------------------------------------------

def test_mag_model_copies_from_context():
    table = BigramTable(V6, {})
    m = MagModel(table, span=4)
    # context ...1 2 3 ... 1 2 -> longest suffix [1,2] seen earlier, copy 3
    d = m.distribution([1, 2, 3, 4, 1, 2])
    assert d[3] == 1.0


def test_mag_model_fallback_on_novel_suffix():
    table = BigramTable.from_corpus([4, 5], V6)
    m = MagModel(table, span=4)
    # all-distinct context: only the trivial self-match exists, so fall back
    d = m.distribution([1, 2, 4])
    assert d[5] == 1.0  # bigram row of the last token


def _brute_force_mag_distribution(table, context):
    """Independent oracle for `MagModel.distribution`: the one-hot of the token
    after the first occurrence, inside context[:-1], of the longest suffix of
    `context`; otherwise the bigram row of the last token."""
    corpus = bytes(context[:-1])
    for m in range(len(context), 0, -1):
        i = corpus.find(bytes(context[-m:]))
        if i >= 0:
            row = np.zeros(table.vocab.size)
            row[context[i + m]] = 1.0
            return row
    return table.distribution([context[-1]])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mag_model_distribution_matches_oracle(data):
    v = data.draw(st.integers(2, 5))
    vocab = Vocab(tuple(f"<{i}>" for i in range(v)))
    tokens = st.integers(0, v - 1)
    # repeated blocks give long matches with several occurrences to tie-break;
    # the tail lets the suffix leave the period
    block = data.draw(st.lists(tokens, min_size=1, max_size=40))
    tail = data.draw(st.lists(tokens, max_size=10))
    context = (block * data.draw(st.integers(1, 4)) + tail)[:80]
    table = BigramTable.from_corpus(data.draw(st.lists(tokens, min_size=2, max_size=20)),
                                    vocab)
    model = MagModel(table, span=4)
    assert np.array_equal(model.distribution(context),
                          _brute_force_mag_distribution(table, context))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mag_model_on_a_context_matches_oracle_on_ids_that_are_not_bytes(data):
    vocab = Vocab.byte_level()
    ids = (vocab.bos_id, vocab.eos_id, vocab.unk_id, 256, 257, 258)
    labels = st.integers(0, data.draw(st.integers(0, len(ids) - 2)))
    block = data.draw(st.lists(labels, min_size=1, max_size=12))
    context = (block * data.draw(st.integers(1, 30)))[:120] + data.draw(
        st.lists(labels, max_size=3))
    if data.draw(st.booleans()):
        context.append(len(ids) - 1)  # a last token never seen before
    table = BigramTable.from_corpus([list(ids), [3, 4, 5]], vocab)
    model = MagModel(table, span=data.draw(st.integers(1, 12)))
    tokens = [ids[t] for t in context]
    # a match that ends the search corpus, context[:-1], copies the last token
    copied = _brute_force_mag(context, context[:-1], 1)
    expected = (table.distribution(tokens) if copied is None
                else model._one_hot[ids[(copied or context[-1:])[0]]])
    buf = Context(tokens)
    assert np.array_equal(model.distribution(buf), expected)
    assert np.array_equal(model.distribution(tokens), expected)
    greedy = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**16))
    rng, ref_rng = RandomSource(seed), RandomSource(seed)
    out, dists = model.propose(buf, 1, rng, greedy)
    ref_out, ref_dists = model.propose(tokens, 1, ref_rng, greedy)
    assert out == ref_out and rng.uniform() == ref_rng.uniform()
    assert all(a is b for a, b in zip(dists, ref_dists))
    assert buf == tokens  # propose only reads the context


def test_mag_model_propose_emits_span_as_one_call():
    table = BigramTable(V6, {})
    m = MagModel(table, span=5)
    out, dists = m.propose([1, 2, 3, 1, 2], 99, RandomSource(0), True)
    assert len(out) == m.span == 5  # the whole span, one model call
    assert out[0] == 3 and dists[0][out[0]] == 1.0


def _per_token_propose(model, tokens, rng, greedy):
    """Reference span loop: one `distribution` call, a full suffix search, per
    drafted token."""
    cur = list(tokens)
    out, probs, dists = [], [], []
    for _ in range(model.span):
        d = model.distribution(cur)
        tok = greedy_token(d) if greedy else sample(d, rng)
        out.append(tok)
        probs.append(float(d[tok]))
        dists.append(d)
        cur.append(tok)
    return out, probs, dists


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mag_propose_span_matches_per_token_loop(data):
    v = data.draw(st.integers(2, 5))
    vocab = Vocab(tuple(f"<{i}>" for i in range(v)))
    tokens = st.integers(0, v - 1)
    # a repeated block makes long periodic copies; one copy is a plain context
    block = data.draw(st.lists(tokens, min_size=1, max_size=40))
    context = (block * data.draw(st.integers(1, 4)))[:80]
    table = BigramTable.from_corpus(data.draw(st.lists(tokens, min_size=2, max_size=20)),
                                    vocab)
    model = MagModel(table, span=data.draw(st.integers(1, 12)))
    greedy = data.draw(st.booleans())
    seed = data.draw(st.integers(0, 2**16))
    rng, ref_rng = RandomSource(seed), RandomSource(seed)
    out, dists = model.propose(context, 1, rng, greedy)
    ref_out, ref_probs, ref_dists = _per_token_propose(model, context, ref_rng, greedy)
    assert len(out) // model.span == 1  # one model call
    assert out == ref_out
    assert [float(d[tok]) for tok, d in zip(out, dists)] == ref_probs
    assert len(dists) == len(ref_dists) == model.span
    assert all(np.array_equal(a, b) for a, b in zip(dists, ref_dists))
    # the same number of uniform draws was consumed
    assert rng.uniform() == ref_rng.uniform()


def test_sampled_mag_fallback_keeps_the_bigram_rows_sums():
    # the fallback draw summed the bigram row again on every token
    table = BigramTable.from_corpus([1, 2, 3, 1, 2, 4], V6)
    model = MagModel(table, span=8)
    # token 5 occurs nowhere before, so the span starts with a fallback token
    out, dists = model.propose([5], 1, RandomSource(0), greedy=False)
    fallback = {id(d): d for d in dists if any(d is row for row in table._cache.values())}
    kept = _kept_sums(table)
    assert fallback and set(kept) == set(fallback)
    for key, cdf in kept.items():
        assert np.array_equal(cdf, fallback[key].cumsum())


def test_mag_determinism():
    table = BigramTable.from_corpus([1, 2, 3, 1, 2, 4], V6)
    m = MagModel(table, span=8)
    ctx = [3, 1, 2, 4, 1, 2]
    a = m.propose(ctx, 8, RandomSource(0), True)
    b = m.propose(ctx, 8, RandomSource(1), True)
    assert a[0] == b[0]


def test_default_cost_ordering(models):
    # suffix copying is priced below the bigram, which is below any n-gram
    assert models["mag"].cost_weight < models["bigram"].cost_weight
    assert models["bigram"].cost_weight <= models["n2"].cost_weight
    assert models["n2"].cost_weight < models["n3"].cost_weight < models["n7"].cost_weight


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["ngram", "bigram", "mag"])
def test_save_load_round_trip(tmp_path, kind, models):
    model = {"ngram": models["n3"], "bigram": models["bigram"], "mag": models["mag"]}[kind]
    path = tmp_path / f"{kind}.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab == model.vocab
    assert loaded.descriptor == model.descriptor
    assert loaded.cost_weight == model.cost_weight
    # probabilities must round-trip bit-faithfully
    for ctx in ([], [models["n3"].vocab.id_of("a")], [5, 6]):
        assert np.array_equal(loaded.distribution(ctx), model.distribution(ctx))


def test_save_load_double_round_trip(tmp_path, models):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(models["n2"], p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_format_version_gate(models):
    obj = model_to_dict(models["bigram"])
    obj["format_version"] = 99
    with pytest.raises(ConstructionError):
        model_from_dict(obj)


def test_unknown_model_type(models):
    obj = model_to_dict(models["bigram"])
    obj["type"] = "transformer"
    with pytest.raises(ConstructionError):
        model_from_dict(obj)


def test_save_mag_model_bytes(tmp_path):
    # the saved format is unchanged: format_version 1 with the one match policy
    path = tmp_path / "mag.json"
    save_model(MagModel(BigramTable.from_corpus([1, 2, 1, 3], V6), span=4), path)
    assert path.read_text() == (
        '{"cost_weight":"0.0","descriptor":"mag","format_version":1,"order":2,'
        '"policy":"prompt+generation","smoothing":null,"span":4,'
        '"tables":{"1":[[2,"0.5"],[3,"0.5"]],"2":[[1,"1.0"]]},"type":"mag",'
        '"vocab":["<0>","<1>","<2>","<3>","<4>","<5>"]}')


@pytest.mark.parametrize("model,text", [
    (lambda: train_ngram([1, 2, 1, 3], 2, V6),
     '{"cost_weight":"6.0","descriptor":"ngram2","format_version":1,"order":2,'
     '"smoothing":"0.75","tables":{"":[[1,"0.5"],[2,"0.25"],[3,"0.25"]],'
     '"1":[[2,"0.5"],[3,"0.5"]],"2":[[1,"1.0"]]},"type":"ngram",'
     '"vocab":["<0>","<1>","<2>","<3>","<4>","<5>"]}'),
    (lambda: BigramTable.from_corpus([1, 2, 1, 3], V6),
     '{"cost_weight":"1.0","descriptor":"bigram","format_version":1,"order":2,'
     '"smoothing":null,"tables":{"1":[[2,"0.5"],[3,"0.5"]],"2":[[1,"1.0"]]},'
     '"type":"bigram","vocab":["<0>","<1>","<2>","<3>","<4>","<5>"]}'),
], ids=["ngram", "bigram"])
def test_save_model_bytes(tmp_path, model, text):
    # the saved format is unchanged for every model type, not only mag
    path = tmp_path / "m.json"
    save_model(model(), path)
    assert path.read_text() == text


_SMALL_MODELS = {
    "ngram": lambda: train_ngram([1, 2, 1, 3], 2, V6),
    "bigram": lambda: BigramTable.from_corpus([1, 2, 1, 3], V6),
    "mag": lambda: MagModel(BigramTable.from_corpus([1, 2, 1, 3], V6), span=4),
}


@pytest.mark.parametrize("kind", sorted(_SMALL_MODELS))
@pytest.mark.parametrize("edit,named", [
    (lambda t: t["1"].__setitem__(0, [-1, "0.5"]), "context '1' holds token id -1"),
    (lambda t: t["1"].__setitem__(0, [6, "0.5"]), "context '1' holds token id 6"),
    (lambda t: t["2"].__setitem__(0, [100000, "1.0"]), "context '2' holds token id 100000"),
    (lambda t: t.__setitem__("9", t.pop("2")), "context '9' holds token id 9"),
    (lambda t: t.__setitem__("-1", t.pop("2")), "context '-1' holds token id -1"),
], ids=["row-negative", "row-vocab-size", "row-huge", "context-past-vocab",
        "context-negative"])
def test_load_rejects_token_ids_outside_the_vocabulary(kind, edit, named):
    # a -1 loaded and put its mass on the last token, and 100000 raised
    # IndexError only once decoding first built the row
    obj = model_to_dict(_SMALL_MODELS[kind]())
    edit(obj["tables"])
    with pytest.raises(ConstructionError, match=named):
        model_from_dict(obj)


@pytest.mark.parametrize("kind,edit,named", [
    ("bigram", lambda obj: obj["tables"].__setitem__("1", [[2, True]]),
     "context '1' probability True is not a saved real"),
    ("ngram", lambda obj: obj["tables"].__setitem__("1", [[2, 0.5], [3, 0.5]]),
     "context '1' probability 0.5 is not a saved real"),
    ("bigram", lambda obj: obj.update(cost_weight=True), "cost_weight True is not a saved real"),
    ("mag", lambda obj: obj.update(cost_weight=0.0), "cost_weight 0.0 is not a saved real"),
    ("ngram", lambda obj: obj.update(smoothing=0.75), "smoothing 0.75 is not a saved real"),
    ("bigram", lambda obj: obj["tables"].__setitem__("1,,2", obj["tables"].pop("1")),
     "table context '1,,2': invalid literal"),
    ("mag", lambda obj: obj.pop("vocab"), "model file lacks required key 'vocab'"),
], ids=["row-true", "row-number", "cost-weight-true", "cost-weight-number",
        "smoothing-number", "context-empty-token", "no-vocab"])
def test_load_reads_saved_files_as_the_writer_writes_them(kind, edit, named):
    # the writer saves every real as the string of its repr: a JSON true
    # loaded as 1.0, a malformed context key raised a bare ValueError and a
    # missing key a bare KeyError
    obj = model_to_dict(_SMALL_MODELS[kind]())
    edit(obj)
    with pytest.raises(ConstructionError, match=named):
        model_from_dict(obj)


@pytest.mark.parametrize("kind,tables,named", [
    ("ngram", [], "tables is a list, not a JSON object"),
    ("bigram", {"1": 5}, "table context '1' row is not a list of"),
    ("mag", {"1": [[2]]}, "table context '1' row is not a list of"),
], ids=["tables-list", "row-number", "entry-not-pair"])
def test_load_rejects_tables_of_the_wrong_shape(kind, tables, named):
    # each raised a bare error: AttributeError ('list' object has no
    # attribute 'items'), TypeError (a number is not iterable) and
    # ValueError (not enough values to unpack)
    obj = model_to_dict(_SMALL_MODELS[kind]())
    obj["tables"] = tables
    with pytest.raises(ConstructionError, match=named):
        model_from_dict(obj)


_BAD_ROWS = {"nan": [[4, "nan"]], "inf": [[4, "inf"]], "negative": [[4, "-0.5"], [5, "1.5"]],
             "short": [[4, "0.3"]], "empty": []}


@pytest.mark.parametrize("kind,key,row,named", [
    ("bigram", "", [[4, "1.0"]], "context '' has 0 tokens"),
    ("mag", "", [[4, "1.0"]], "context '' has 0 tokens"),
    ("bigram", "1,2", [[4, "1.0"]], "context '1,2' has 2 tokens"),
    ("ngram", "1,2,1", [[4, "1.0"]], "context '1,2,1' has 3 tokens"),
] + [(kind, "1", row, "context '1' row is not a distribution")
     for kind in sorted(_SMALL_MODELS) for row in _BAD_ROWS.values()],
    ids=["bigram-empty-context", "mag-empty-context", "bigram-2-token-context",
         "ngram2-3-token-context"] + [f"{kind}-row-{name}" for kind in sorted(_SMALL_MODELS)
                                      for name in _BAD_ROWS])
def test_load_rejects_tables_the_trainer_never_counts(kind, key, row, named):
    # each loaded: a bigram's '' key became the row after every token never
    # seen as a predecessor, a context of another length was never read, and
    # a NaN, infinite, negative or unnormalized row reached decoding
    obj = model_to_dict(_SMALL_MODELS[kind]())
    obj["tables"][key] = row
    with pytest.raises(ConstructionError, match=named):
        model_from_dict(obj)


@pytest.mark.parametrize("kind,key,value,error,named", [
    ("ngram", "order", 2.5, ContractViolation, "order 2.5 is not an integer >= 1"),
    ("ngram", "order", True, ContractViolation, "order True is not an integer >= 1"),
    ("mag", "span", 3.9, ContractViolation, "span 3.9 is not an integer >= 1"),
    ("mag", "span", True, ContractViolation, "span True is not an integer >= 1"),
    ("bigram", "row token", 1.7, ContractViolation, "context '1' token id 1.7 is not an integer"),
    ("ngram", "row token", True, ContractViolation, "context '1' token id True is not an integer"),
    ("ngram", "cost_weight", "nan", ConstructionError, "cost_weight nan is not a finite"),
    ("bigram", "cost_weight", "inf", ConstructionError, "cost_weight inf is not a finite"),
])
def test_load_rejects_values_that_are_not_what_the_model_takes(kind, key, value, error, named):
    # int() truncated order 2.5, span 3.9 and a row token 1.7 and read true
    # as 1; a NaN or infinite cost weight loaded and broke swi later
    obj = model_to_dict(_SMALL_MODELS[kind]())
    if key == "row token":
        obj["tables"]["1"][0][0] = value
    else:
        obj[key] = value
    with pytest.raises(error, match=named):
        model_from_dict(obj)


@pytest.mark.parametrize("kind,edit,named", [
    ("bigram", lambda obj: obj.update(order=9), "a 'bigram' model file has order 2, not 9"),
    ("bigram", lambda obj: obj.update(smoothing="0.5"),
     "a 'bigram' model file has smoothing None, not '0.5'"),
    ("mag", lambda obj: obj.update(order=3), "a 'mag' model file has order 2, not 3"),
    ("ngram", lambda obj: obj.update(span=4), "a 'ngram' model file does not hold key 'span'"),
    ("mag", lambda obj: obj.update(interpolation="0.5"),
     "a 'mag' model file does not hold key 'interpolation'"),
    ("bigram", lambda obj: obj.update(policy="prompt+generation"),
     "a 'bigram' model file does not hold key 'policy'"),
    ("bigram", lambda obj: obj.pop("smoothing"), "model file lacks required key 'smoothing'"),
    ("ngram", lambda obj: obj.pop("order"), "model file lacks required key 'order'"),
], ids=["bigram-order", "bigram-smoothing", "mag-order", "ngram-span", "mag-interpolation",
        "bigram-policy", "bigram-no-smoothing", "ngram-no-order"])
def test_load_takes_exactly_the_keys_the_writer_writes(kind, edit, named):
    # each but the missing order loaded with the key ignored, as a misspelt
    # spec key once trained; a missing order was a ContractViolation
    obj = model_to_dict(_SMALL_MODELS[kind]())
    edit(obj)
    with pytest.raises(ConstructionError, match=named):
        model_from_dict(obj)


def test_load_rejects_unknown_mag_policy(tmp_path, models):
    obj = model_to_dict(models["mag"])
    obj["policy"] = "prompt-only"
    path = tmp_path / "mag.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConstructionError, match="prompt-only"):
        load_model(path)
