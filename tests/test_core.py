"""Vocabulary, distribution arithmetic, randomness, the model contract, and
the decode's token buffer."""
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft import core
from specdraft.core import (
    ConstructionError,
    Context,
    LanguageModel,
    ContractViolation,
    DegenerateDistribution,
    KeptRow,
    RandomSource,
    Vocab,
    greedy_token,
    normalize,
    residual,
    sample,
)
from specdraft.kernel import DecodeMode, speculative_review
from specdraft.statlm import NGramModel


class _FixedRng:
    """Stand-in RandomSource feeding a scripted uniform stream."""

    def __init__(self, values):
        self._values = list(values)

    def uniform(self):
        return self._values.pop(0)


# ---------------------------------------------------------------------------
# normalize / residual
# ---------------------------------------------------------------------------

def test_normalize_symmetric():
    assert np.allclose(normalize([2, 2]), [0.5, 0.5])


def test_normalize_single_support_point():
    assert np.allclose(normalize([0, 3, 0]), [0, 1, 0])


def test_normalize_zero_vector_raises():
    with pytest.raises(DegenerateDistribution):
        normalize([0, 0])


def test_normalize_rejects_negative():
    with pytest.raises(ContractViolation):
        normalize([1, -1])


def test_residual_forced_by_clipping():
    assert np.allclose(residual(np.array([0.5, 0.5]), np.array([1.0, 0.0])), [0, 1])
    assert np.allclose(residual(np.array([0.6, 0.4]), np.array([0.2, 0.8])), [1, 0])


def test_residual_identical_distributions_raise():
    with pytest.raises(DegenerateDistribution):
        residual(np.array([0.3, 0.7]), np.array([0.3, 0.7]))


def test_residual_shape_mismatch():
    with pytest.raises(ContractViolation):
        residual(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_residual_identity_random_pairs(seed, size):
    rng = np.random.default_rng(seed)
    p = normalize(rng.random(size) + 1e-9)
    q = normalize(rng.random(size) + 1e-9)
    if np.allclose(p, q):
        return
    r = residual(p, q)
    assert abs(r.sum() - 1.0) < 1e-12
    assert np.all(r[q >= p] == 0.0)


def test_speculative_sampling_completeness_identity():
    # p(x) = min(p,q)(x) + (1 - sum min(p,q)) * residual(p,q)(x) for all x.
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = rng.integers(2, 9)
        p = normalize(rng.random(size) + 1e-9)
        q = normalize(rng.random(size) + 1e-9)
        overlap = np.minimum(p, q)
        rest = 1.0 - overlap.sum()
        if rest <= 0:
            continue
        lhs = overlap + rest * residual(p, q)
        assert np.max(np.abs(lhs - p)) < 1e-12


# ---------------------------------------------------------------------------
# sampling and greedy selection
# ---------------------------------------------------------------------------

def test_sample_point_mass():
    dist = np.array([1.0, 0.0, 0.0])
    assert sample(dist, _FixedRng([0.0])) == 0
    assert sample(dist, _FixedRng([0.999])) == 0


def test_sample_inverse_cdf_boundary():
    assert sample(np.array([0.5, 0.5]), _FixedRng([0.25])) == 0
    assert sample(np.array([0.5, 0.5]), _FixedRng([0.75])) == 1


def test_sample_never_lands_on_zero_mass_tail():
    # this row sums to just under 1, so the largest uniform draws pass the
    # last CDF value; the draw must still land on a token with mass
    dist = normalize([1] * 10 + [0])
    u = 1 - 2**-53
    assert np.cumsum(dist)[-1] <= u
    assert sample(dist, _FixedRng([u])) == 9


@pytest.mark.parametrize("dist", [np.array([0.1, 0.2, 0.7]), np.array([0.0, 1.0, 0.0]),
                                  normalize([1] * 10 + [0]), normalize(np.arange(259.0))],
                         ids=["three", "point-mass", "just-under-one", "v259"])
def test_sample_with_the_rows_cdf_equals_sample(dist):
    # the largest draws pass the last CDF value of a row summing to just
    # under 1, so they take the last-positive-mass fallback either way
    draws = [0.0, 0.1, 0.3, 0.5, 0.7, 0.99, 1 - 2**-53]
    for u in draws:
        assert sample(dist, _FixedRng([u]), dist.cumsum()) == sample(dist, _FixedRng([u]))
    a, b = RandomSource(4), RandomSource(4)
    assert ([sample(dist, a, dist.cumsum()) for _ in range(200)]
            == [sample(dist, b) for _ in range(200)])
    # a kept row's sums bisect to the same token as numpy's search of the
    # row, at every CDF value and at both its neighbours
    _assert_kept_sums_sample_as_the_row(_kept(dist))


def _kept(dist):
    """The one row of an order-1 n-gram at interpolation 1 whose `()` table is
    `dist`: a `KeptRow`, built by the model and bit-equal to `dist`."""
    dist = np.asarray(dist, dtype=np.float64)
    model = NGramModel(1, Vocab(tuple(f"<{i}>" for i in range(len(dist)))),
                       {(): dict(enumerate(map(float, dist)))}, interpolation=1.0)
    row = model.distribution([])
    assert type(row) is KeptRow and row.tobytes() == dist.tobytes() and not row.flags.writeable
    return row


def _plain(row):
    """A copy of `row` as a plain array, which keeps nothing."""
    return np.array(row)


def _neighbours(sums):
    """Every value in `sums` and both its `nextafter` neighbours, in [0, 1)."""
    draws = {float(u) for c in sums for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))}
    return sorted(u for u in draws if 0.0 <= u < 1.0)


def _assert_picked_as_a_plain_copy(row, q=None):
    """`core.pick` chooses from `row` what it chooses from a plain copy of it:
    greedily, and sampled at every sum and both its neighbours."""
    plain = _plain(row)
    assert core.pick(row, None, True) == core.pick(plain, None, True) == greedy_token(plain)
    for u in _neighbours(plain.cumsum()):
        assert (core.pick(row, _FixedRng([u]), False, q)
                == core.pick(plain, _FixedRng([u]), False, q))


def _assert_kept_sums_sample_as_the_row(*rows):
    for row in rows:
        _assert_picked_as_a_plain_copy(row)
        assert list(row.sums) == row.cumsum().tolist()


def test_kept_sums_of_shipped_n3_rows_sample_as_the_row(models, eval_prompts):
    n3 = models["n3"]
    rows = list({id(r): r for p in eval_prompts[:8] for r in n3.evaluate(p, 1)}.values())
    assert len(rows) > 20
    _assert_kept_sums_sample_as_the_row(*rows)


def _read_only(weights):
    row = normalize(weights)
    row.flags.writeable = False
    return row


def _assert_kept_draw_is_the_rejection_draw(p, q):
    """`core.pick(p, rng, False, q)` of a kept row `p` draws what `sample`
    draws from `residual(p, q)`, or from `p` where that has no mass, at every
    sum `p` keeps, at both its neighbours and at or past the last one; and a
    review that rejects a draft from `q` emits the same token under `p` as
    under a plain copy of it.  Returns the rejection row."""
    try:
        row = residual(p, q)
    except DegenerateDistribution:
        row = p
    plain = _plain(p)
    tok = int(np.argmax(q - p))  # q over p: a draw of 0.0 rejects it
    for u in sorted(set(_neighbours(row.cumsum()[row > 0])) | {1 - 2**-53}):
        assert core.pick(p, _FixedRng([u]), False, q) == sample(row, _FixedRng([u]))
        if q[tok] > p[tok]:
            assert (speculative_review([p, p], [tok], [q], rng=_FixedRng([0.0, u]))[0]
                    == speculative_review([plain, plain], [tok], [q], rng=_FixedRng([0.0, u]))[0])
    return row


@pytest.mark.parametrize("p,q,support", [
    ([0.5, 0.5, 0, 0], [0.2, 0.8, 0, 0], 1),
    ([0.4, 0.4, 0.2, 0], [0.1, 0.1, 0.8, 0], 2),
    ([0.3, 0.1, 0.3, 0, 0.3], [0.1, 0.5, 0.1, 0.2, 0.1], 3),
    ([1] * 10 + [0], [0] * 10 + [1], 10),  # the residual sums to just under 1
    ([1] * 10 + [0], [1] * 10 + [0], 10),  # p == q: the draw falls back to p
], ids=["one", "two", "three-between-zeros", "ten-just-under-one", "p-equals-q"])
def test_kept_residual_draw_is_the_rejection_draw(p, q, support):
    p, q = _kept(normalize(p)), _read_only(q)
    row = _assert_kept_draw_is_the_rejection_draw(p, q)
    assert np.count_nonzero(row) == support
    if support == 10:  # so the largest draws pass the last sum
        assert row.cumsum()[-1] < 1.0
    assert list(p.residuals) == [id(q)]
    sums, ids, kept_q = p.residuals[id(q)]
    assert len(sums) + 1 == len(ids) == support + 1 and kept_q is q


def test_kept_residual_draw_under_a_mag_one_hot_row(models, eval_prompts):
    n7, mag = models["n7"], models["mag"]
    p = n7.distribution(eval_prompts[0])
    q = mag._one_hot[int(np.argmax(p))]
    row = _assert_kept_draw_is_the_rejection_draw(p, q)
    assert np.count_nonzero(row) >= 250


def test_fresh_proposal_rows_keep_no_residual_table():
    # a writeable row may be new on every call, and a freed row's id taken
    # by the next, so a table for it could serve another row's draws
    p = _kept(normalize([0.4, 0.4, 0.2, 0]))
    q = normalize([0.1, 0.1, 0.8, 0])
    for a, b in ((p, q), (q, p)):
        assert (core.pick(a, _FixedRng([0.5]), False, b)
                == core.pick(_plain(a), _FixedRng([0.5]), False, b))
    assert p.sums is None and p.residuals is None


@pytest.mark.parametrize("writeable", [False, True], ids=["read-only", "writeable"])
def test_a_foreign_row_is_picked_as_core_picks_it_and_keeps_nothing(writeable):
    # sums were once kept under the id of any row picked, which a freed row
    # hands on to the next, so a row could bisect another's sums: [0, 0, 0, 1]
    # drew token 0 from [0.5, 0.5, 0.5, 1.0] in about half the tries
    own = _kept(normalize([1, 2, 3, 4]))
    for _ in range(200):
        for weights in ([1, 0, 0, 1], [0, 0, 0, 1]):
            row = normalize(weights)
            row.flags.writeable = writeable
            for u in _neighbours(row.cumsum()):
                assert core.pick(row, _FixedRng([u]), False) == sample(row, _FixedRng([u]))
            assert core.pick(row, None, True) == greedy_token(row)
            assert not hasattr(row, "top")
            del row
    assert own.sums is None and own.residuals is None


@pytest.mark.parametrize("derive", [lambda r: r.copy(), lambda r: r[:], lambda r: r * 1.0],
                         ids=["copy", "slice", "product"])
def test_an_array_derived_from_a_kept_row_keeps_nothing(derive):
    # numpy gives a copy, slice or product of a kept row its type, with no
    # slot set: it is picked as any array, and picking it keeps nothing
    weights = [[1, 2, 3, 4], [4, 3, 3, 0], [1] * 10 + [0]]
    for p, q in zip(map(_kept, map(normalize, weights)), [None, _read_only([0, 1, 2, 1]), None]):
        derived = derive(p)
        assert type(derived) is KeptRow and derived.tobytes() == p.tobytes()
        _assert_picked_as_a_plain_copy(derived, q)
        for name in ("top", "sums", "residuals"):
            assert not hasattr(derived, name)
        assert p.sums is None and p.residuals is None


def test_a_kept_sum_takes_no_more_bytes_than_its_row():
    # 8 bytes a sum, as in numpy: a list would hold a 24-byte float object
    # and an 8-byte pointer for each
    row = _kept(normalize(np.arange(1.0, 260.0) ** 2))
    tracemalloc.start()
    try:
        core.pick(row, _FixedRng([0.5]), False)
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(row.sums) == 259
    assert grown <= row.nbytes + 512


def test_sample_empirical_frequencies():
    dist = np.array([0.1, 0.2, 0.7])
    rng = RandomSource(12345)
    n = 1_000_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample(dist, rng)] += 1
    assert np.max(np.abs(counts / n - dist)) < 0.003


def test_sample_determinism():
    dist = np.array([0.3, 0.3, 0.4])
    rng = RandomSource(9)
    run1 = [sample(dist, rng) for _ in range(20)]
    rng = RandomSource(9)
    run2 = [sample(dist, rng) for _ in range(20)]
    assert run1 == run2


def test_greedy_tie_break_lowest_id():
    assert greedy_token(np.array([0.4, 0.4, 0.2])) == 0
    assert greedy_token(np.array([0.2, 0.4, 0.4])) == 1


# ---------------------------------------------------------------------------
# RandomSource
# ---------------------------------------------------------------------------

def test_random_source_repeatable():
    assert RandomSource(42).uniforms(16).tolist() == RandomSource(42).uniforms(16).tolist()


#: one step of a draw schedule: a uniform(), a uniforms(shape), or a split(2)
_draw_steps = st.one_of(st.just("uniform"), st.just("split"), st.integers(0, 150),
                        st.tuples(st.integers(0, 9), st.integers(0, 9)))


@given(st.integers(0, 2**32 - 1), st.lists(_draw_steps, max_size=40))
@settings(max_examples=80, deadline=None)
def test_random_source_is_the_generators_one_at_a_time_stream(seed, steps):
    # draws are served from blocks; any interleaving of uniform and
    # uniforms, around splits, reads the generator's stream in order
    rng, kids = RandomSource(seed), RandomSource(seed).split(2)
    got = []
    for step in steps:
        if step == "uniform":
            got.append(rng.uniform())
        elif step == "split":  # reads only the seed sequence, not the stream
            assert [k.uniforms(3).tolist() for k in rng.split(2)] == [
                k.uniforms(3).tolist() for k in RandomSource(seed).split(2)]
        else:
            draws = rng.uniforms(step)
            assert draws.shape == np.empty(step).shape
            got.extend(draws.ravel().tolist())
    got.append(rng.uniform())
    want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).random(len(got))
    assert got == want.tolist()
    # children split before any draw read their own sequences' streams
    assert [k.uniform() for k in kids] == [float(np.random.Generator(np.random.PCG64(s)).random())
                                           for s in np.random.SeedSequence(seed).spawn(2)]


def test_random_source_split_stable():
    kids1 = RandomSource(42).split(3)
    kids2 = RandomSource(42).split(3)
    for a, b in zip(kids1, kids2):
        assert a.uniforms(8).tolist() == b.uniforms(8).tolist()
    # children differ from each other
    assert kids1[0].uniform() != kids1[1].uniform()


def test_random_source_split_child_streams():
    def draws(sources):
        return [s.uniforms(4).tolist() for s in sources]

    # a root splits by SeedSequence.spawn on its seed, as it always has
    roots = [np.random.Generator(np.random.PCG64(c)).random(4).tolist()
             for c in np.random.SeedSequence(7).spawn(2)]
    assert draws(RandomSource(7).split(2)) == roots
    # a child splits from its own sequence, not the master seed, and
    # splitting it twice gives the same grandchildren
    child = RandomSource(7).split(2)[0]
    grandkids = draws(child.split(2))
    assert grandkids == draws(child.split(2))
    assert grandkids != roots


# ---------------------------------------------------------------------------
# Vocab
# ---------------------------------------------------------------------------

def test_byte_level_vocab():
    v = Vocab.byte_level()
    assert v.size == 259
    assert v.piece_of(v.id_of("a")) == "a"
    assert v.bos_id == 0 and v.eos_id == 1 and v.unk_id == 2


def test_vocab_rejects_duplicates():
    with pytest.raises(ConstructionError):
        Vocab(["a", "b", "a"])


def test_vocab_from_words_sorted_and_deduped():
    v = Vocab.from_words(["cat", "ant", "<eos>", "cat", "bee"])
    assert v.pieces[3:] == ("ant", "bee", "cat")


def test_vocab_from_words_is_linear():
    # deduplicating against a list compares each word with every earlier one
    class Word(str):
        comparisons = 0

        def __eq__(self, other):
            Word.comparisons += 1
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    words = [Word(f"w{i}") for i in range(300)]
    v = Vocab.from_words(words + words)
    assert v.size == 303
    assert Word.comparisons < len(words)


def test_vocab_refuses_more_pieces_than_a_mirror_has_code_points(monkeypatch):
    # a Context mirrors token id t as chr(t), so no id may pass sys.maxunicode
    assert core.MAX_VOCAB_SIZE == sys.maxunicode + 1
    assert len(chr(core.MAX_VOCAB_SIZE - 1)) == 1
    monkeypatch.setattr(core, "MAX_VOCAB_SIZE", 4)
    assert Vocab(["a", "b", "c", "d"]).size == 4
    with pytest.raises(ConstructionError, match="5 pieces exceeds 4"):
        Vocab(["a", "b", "c", "d", "e"])


def test_piece_of_out_of_range():
    with pytest.raises(ContractViolation):
        Vocab.byte_level().piece_of(999)


# ---------------------------------------------------------------------------
# model contract
# ---------------------------------------------------------------------------

class _CycleModel(LanguageModel):
    """Deterministic toy: next token = (last token + 1) mod V, slightly smoothed."""

    def __init__(self, vocab_size=4):
        vocab = Vocab(tuple(f"<{i}>" for i in range(vocab_size)))
        super().__init__(vocab, 1.0, "cycle")

    def distribution(self, context):
        v = np.full(self.vocab.size, 0.01)
        nxt = (context[-1] + 1) % self.vocab.size if context else 0
        v[nxt] += 1.0
        return v / v.sum()


def test_evaluate_position_contract():
    m = _CycleModel()
    dists = m.evaluate([0, 1], 2)
    # positions 2 and 3: conditioned on [0] and on [0, 1]
    assert len(dists) == 2
    assert greedy_token(dists[0]) == 1
    assert greedy_token(dists[1]) == 2


class _CountingCycleModel(_CycleModel):
    """`_CycleModel` recording the context of every row it builds."""

    def __init__(self, vocab_size=4):
        super().__init__(vocab_size)
        self.contexts = []

    def distribution(self, context):
        self.contexts.append(tuple(context))
        return super().distribution(context)


def test_whole_context_rows_are_built_when_read():
    m = _CountingCycleModel()
    tokens = [0, 1, 2, 3]
    rows = m.evaluate(tokens, 2)
    assert len(rows) == 4 and m.contexts == []
    assert greedy_token(rows[2]) == 3 and m.contexts == [(0, 1, 2)]
    # each row reads every token before its position, not a window of them
    list(rows)
    assert m.contexts[1:] == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]


def _one_hot(size, tok):
    row = np.zeros(size)
    row[tok] = 1.0
    return row


@pytest.mark.parametrize("mode", list(DecodeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("rejected", [0, 1, 3, None], ids=lambda j: f"reject-{j}")
def test_a_review_builds_its_rows_in_order_up_to_the_first_rejection(mode, rejected):
    # a review reads its lazy rows by iteration: one that rejects at j builds
    # rows 0..j only, one that accepts all k tokens builds k + 1
    m, prefix, k = _CountingCycleModel(), [0], 4
    tokens = [(prefix[-1] + 1 + i) % 4 for i in range(k)]  # each the row's argmax
    proposals = [m.distribution(prefix + tokens[:i]) for i in range(k)]  # q == p: accepted
    if rejected is not None:  # a one-hot proposal of a token the row gives 0.01
        tokens[rejected] = (tokens[rejected] + 2) % 4
        proposals[rejected] = _one_hot(4, tokens[rejected])
    m.contexts.clear()
    rows = m.evaluate(prefix + tokens, len(prefix) + 1)
    emitted, read = speculative_review(rows, tokens, proposals, mode=mode,
                                       rng=_FixedRng([0.0, 0.5]))
    built = k + 1 if rejected is None else rejected + 1
    assert len(emitted) == len(read) == built
    assert m.contexts == [tuple(prefix + tokens[:i]) for i in range(built)]


@pytest.mark.parametrize("mode", list(DecodeMode), ids=lambda m: m.value)
@pytest.mark.parametrize("at", [0, 2], ids=["first", "after-the-rejection"])
@pytest.mark.parametrize("bad", [0.0, 1.5, float("nan")], ids=str)
def test_every_proposal_probability_is_checked(mode, at, bad):
    # every q(x) is checked before the review reads any row: at the first
    # draft, and past the first rejection (at 0, of a one-hot draft the row
    # gives 0.01), and a NaN anywhere
    m, prefix = _CountingCycleModel(), [0]
    tokens = [3, 3, 0]
    proposals = [_one_hot(4, tok) for tok in tokens]
    proposals[at] *= bad
    with pytest.raises(ContractViolation, match=f"proposal probability {bad} outside"):
        speculative_review(m.evaluate(prefix + tokens, 2), tokens, proposals, mode=mode,
                           rng=_FixedRng([0.0, 0.5]))
    assert m.contexts == []


def test_appending_to_the_tokens_after_evaluate_changes_no_row():
    m = _CountingCycleModel(5)
    tokens = [0, 3, 1]
    rows = m.evaluate(tokens, 2)
    tokens.append(4)
    assert len(rows) == 3
    assert [greedy_token(r) for r in rows] == [1, 4, 2]
    assert m.contexts == [(0,), (0, 3), (0, 3, 1)]


def test_evaluate_loop_vs_batch():
    m = _CycleModel(5)
    tokens = [0, 1, 2, 3, 4, 0]
    batch = m.evaluate(tokens, 1)
    for p, d in enumerate(batch, start=1):
        single = m.evaluate(tokens[: p - 1], p)[0] if p > 1 else m.evaluate([], 1)[0]
        assert np.array_equal(d, single)


def test_evaluate_purity_bitwise():
    m = _CycleModel()
    a = m.evaluate([1, 2], 1)
    b = m.evaluate([1, 2], 1)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_evaluate_start_bounds():
    m = _CycleModel()
    with pytest.raises(ContractViolation):
        m.evaluate([0, 1], 0)
    with pytest.raises(ContractViolation):
        m.evaluate([0, 1], 4)


@pytest.mark.parametrize("greedy", [True, False], ids=["greedy", "sampled"])
def test_whole_context_drafter_builds_no_row_sequence(monkeypatch, greedy):
    # drafting read each row from a whole `evaluate` row sequence, copying
    # the context twice per drafted token
    from specdraft import core

    def no_rows(*args):
        raise AssertionError("propose built a row sequence")

    monkeypatch.setattr(core, "_Rows", no_rows)
    m = _CountingCycleModel()
    out, dists = m.propose([0, 1], 5, RandomSource(3), greedy)
    assert len(out) == len(dists) == 5
    # one `distribution` call per drafted token, after the tokens before it
    assert m.contexts == [tuple([0, 1] + out[:i]) for i in range(5)]


class _WindowCycleModel(_CountingCycleModel):
    """`_CountingCycleModel` whose rows read only the last token."""

    window = 1


def test_propose_copies_only_the_window_of_the_context():
    m = _WindowCycleModel()
    out, _ = m.propose(Context([3, 0, 1, 2]), 3, RandomSource(0), greedy=True)
    assert out == [3, 0, 1]
    assert m.contexts == [(2,), (2, 3), (2, 3, 0)]


class _LengthsNGram(NGramModel):
    """An n-gram recording the length of every context `distribution` reads."""

    def distribution(self, context):
        self.lengths = getattr(self, "lengths", []) + [len(context)]
        return super().distribution(context)


@pytest.mark.parametrize("order,given,lengths", [(1, 100_000, [0, 1, 2]), (4, 2, [2, 3, 4])],
                         ids=["window-0", "window-past-the-context"])
def test_propose_copies_at_most_the_window_of_a_long_context(order, given, lengths):
    # `tokens[-0:]` is the whole list, so an order-1 n-gram's propose copied
    # all 100,000 tokens and handed each row a context of 100,000 or more
    model = _LengthsNGram(order, Vocab(("<0>", "<1>")), {(): {0: 0.5, 1: 0.5}})
    model.propose(Context([0] * given), 3, RandomSource(0), greedy=True)
    assert model.lengths == lengths


def test_propose_budget_and_probs():
    m = _CycleModel()
    out, dists = m.propose([0], 3, RandomSource(0), greedy=True)
    assert out == [1, 2, 3]
    assert m.span == 1  # one model call per drafted token
    assert len(dists) == 3
    # each row is the model's distribution where its token was drafted
    for i, (tok, d) in enumerate(zip(out, dists)):
        assert np.array_equal(d, m.distribution([0] + out[:i]))
        assert d[tok] == d.max()


# ---------------------------------------------------------------------------
# Context
# ---------------------------------------------------------------------------

_IDS = st.integers(0, sys.maxunicode)
_BUFFER_OPS = st.lists(st.one_of(
    st.tuples(st.just("extend"), st.lists(_IDS, max_size=6)),
    st.tuples(st.just("append"), _IDS),
    st.tuples(st.just("cut"), st.integers(-10, 10)),
    st.tuples(st.just("read"), st.none()),
), max_size=40)


@given(st.lists(_IDS, max_size=8), _BUFFER_OPS)
@settings(max_examples=300, deadline=None)
def test_context_text_mirrors_its_tokens(start, ops):
    buf, ref = Context(start), list(start)
    for op, arg in ops:
        if op == "extend":
            buf.extend(arg)
            ref.extend(arg)
        elif op == "append":
            buf.append(arg)
            ref.append(arg)
        elif op == "cut":
            del buf[arg:]
            del ref[arg:]
        assert buf == ref
        if op == "read":  # a read between changes syncs the mirror part way
            assert buf.text == "".join(map(chr, ref))
    assert buf.text == "".join(map(chr, buf))


@pytest.mark.parametrize("ids", [[7], list(range(0xD7FE, 0xE001)), [sys.maxunicode, 0, 0xDFFF]],
                         ids=["one", "surrogates", "extremes"])
def test_context_text_decodes_as_it_joins(ids):
    # a first mirror is decoded from the ids' bytes; later syncs join
    buf = Context(ids)
    assert buf.text == "".join(map(chr, ids))
    buf.extend([0xDC00, sys.maxunicode])
    buf.append(65)
    assert buf.text == "".join(map(chr, ids + [0xDC00, sys.maxunicode, 65]))
    del buf[1:]
    assert buf.text == chr(ids[0])
    del buf[:]
    buf.extend(ids[::-1])
    assert buf.text == "".join(map(chr, ids[::-1]))


def test_context_refuses_changes_its_mirror_cannot_follow():
    changes = [lambda b: b.__setitem__(0, 5), lambda b: b.insert(0, 5), lambda b: b.pop(),
               lambda b: b.remove(1), lambda b: b.clear(), lambda b: b.sort(),
               lambda b: b.reverse(), lambda b: b.__imul__(2),
               lambda b: b.__delitem__(0), lambda b: b.__delitem__(slice(0, 1)),
               lambda b: b.__delitem__(slice(1, None, 2))]
    for change in changes:
        buf = Context([1, 2, 3])
        assert buf.text == "\x01\x02\x03"
        with pytest.raises(ContractViolation, match="del buf"):
            change(buf)
        assert buf == [1, 2, 3] and buf.text == "\x01\x02\x03"
