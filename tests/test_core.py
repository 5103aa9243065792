"""Vocabulary, distribution arithmetic, randomness, and the model contract."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdraft.core import (
    ConstructionError,
    ContextConditionedModel,
    ContractViolation,
    DegenerateDistribution,
    RandomSource,
    Vocab,
    greedy_token,
    normalize,
    residual,
    sample,
)


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


def test_piece_of_out_of_range():
    with pytest.raises(ContractViolation):
        Vocab.byte_level().piece_of(999)


# ---------------------------------------------------------------------------
# model contract
# ---------------------------------------------------------------------------

class _CycleModel(ContextConditionedModel):
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
