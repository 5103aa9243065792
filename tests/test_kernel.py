"""The accept/reject/resample review primitive, and the plain SD step as the
one-level cascade step: csd_step over a CascadeConfig with one draft and
k-matrix [[k]]."""
import numpy as np
import pytest

from specdraft.cascade import CascadeConfig, GenerationTrace, KMatrix, csd_step
from specdraft.core import (
    LanguageModel,
    ContractViolation,
    RandomSource,
    Vocab,
    normalize,
    residual,
)
from specdraft.kernel import (
    DecodeMode,
    check_lenience,
    speculative_review,
)


def _const_model(dist, descriptor="const", cost=1.0):
    from specdraft.analytics import ConstantModel
    return ConstantModel(dist, cost_weight=cost, descriptor=descriptor)


class _CountingModel(LanguageModel):
    """Wraps a fixed distribution and counts evaluate and distribution invocations."""

    def __init__(self, dist, descriptor):
        self._dist = normalize(dist)
        self.n_evaluate = self.n_distribution = 0
        vocab = Vocab(tuple(f"<{i}>" for i in range(len(self._dist))))
        super().__init__(vocab, 1.0, descriptor)

    def evaluate(self, tokens, start):
        self.n_evaluate += 1
        return super().evaluate(tokens, start)

    def distribution(self, context):
        self.n_distribution += 1
        return self._dist


def test_check_lenience():
    assert check_lenience(1.0) == 1.0
    assert check_lenience(3.5) == 3.5
    with pytest.raises(ContractViolation):
        check_lenience(0.99)


def test_draft_batch_invariants():
    # one proposal row per token, and each token's q in (0, 1]
    u = np.ones(3) / 3
    with pytest.raises(ContractViolation):
        speculative_review([u, u, u], [1, 2], [u], mode=DecodeMode.GREEDY)
    with pytest.raises(ContractViolation):
        speculative_review([u, u], [1], [np.array([1.0, 0.0, 0.0])], mode=DecodeMode.GREEDY)
    with pytest.raises(ContractViolation):
        speculative_review([u, u], [1], [np.array([0.0, 1.5, 0.0])], mode=DecodeMode.GREEDY)
    with pytest.raises(ContractViolation):
        speculative_review([u, u], [1], [u, u], mode=DecodeMode.GREEDY)


def test_review_length_mismatch():
    h = np.array([0.5, 0.5])
    with pytest.raises(ContractViolation):
        speculative_review([np.array([1.0, 0.0])], [0, 1], [h, h],
                           mode=DecodeMode.GREEDY)


def test_sampling_requires_proposal_dists():
    dists = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    with pytest.raises(ContractViolation):
        speculative_review(dists, [0], [], rng=RandomSource(0))


def test_a_sampled_review_without_an_rng_reads_no_row():
    # the default mode samples, and `sample` once failed on a None rng with
    # an AttributeError when the first draw was needed
    model = _CountingModel([0.5, 0.5], "m")
    for k in (0, 2):
        with pytest.raises(ContractViolation, match="rng"):
            speculative_review(model.evaluate([0] * (k + 1), 2), [0] * k, [model._dist] * k)
    assert model.n_distribution == 0
    # a greedy review draws nothing, so it needs none
    assert speculative_review(model.evaluate([0], 2), [], [], mode=DecodeMode.GREEDY)[0] == [0]


def test_greedy_full_acceptance():
    # every draft token equals the reviewer argmax -> k accepted + bonus
    p = np.array([0.1, 0.8, 0.1])
    dists = [p, p, p, p]
    q = np.array([0.05, 0.9, 0.05])
    emitted, rows = speculative_review(dists, [1, 1, 1], [q, q, q], mode=DecodeMode.GREEDY)
    assert emitted == [1, 1, 1, 1]
    assert len(rows) == 4 and all(r is p for r in rows)


def test_greedy_rejection_emits_argmax():
    p = np.array([0.8, 0.1, 0.1])
    q = np.array([0.05, 0.05, 0.9])
    emitted, _ = speculative_review([p, p], [2], [q], mode=DecodeMode.GREEDY, argmax_only=True)
    assert emitted == [0]


def test_greedy_lenience_disjunction():
    # draft token is not the argmax, but q <= l*p lets it through internally
    p = np.array([0.5, 0.3, 0.2])
    rows = [np.array([0.4, 0.6, 0.0])]
    strict, _ = speculative_review([p, p], [1], rows, lenience=1.0, mode=DecodeMode.GREEDY)
    lenient, _ = speculative_review([p, p], [1], rows, lenience=3.0, mode=DecodeMode.GREEDY)
    assert strict == [0]  # rejected: the argmax in place of the draft
    assert lenient == [1, 0]  # accepted, then the bonus argmax
    # argmax_only ignores the lenience escape hatch entirely
    outer, _ = speculative_review([p, p], [1], rows, lenience=3.0, mode=DecodeMode.GREEDY,
                                  argmax_only=True)
    assert outer == [0]


def test_sampling_deterministic_accept_branch():
    # q <= p: accepted without consuming randomness
    p = np.array([0.9, 0.1])
    q = np.array([0.5, 0.5])
    emitted, _ = speculative_review([p, p], [0], [q], mode=DecodeMode.SAMPLING,
                                    rng=RandomSource(0))
    assert emitted[0] == 0
    assert len(emitted) - 1 == 1  # accepted, then the bonus token


def test_sampling_branch_enumeration_marginal():
    # k=1: P(first emitted = x) = min(p,q)(x) + (1 - sum min) * residual(x) = p(x)
    rng = np.random.default_rng(3)
    for _ in range(200):
        size = int(rng.integers(2, 6))
        p = normalize(rng.random(size) + 1e-6)
        q = normalize(rng.random(size) + 1e-6)
        overlap = np.minimum(p, q)
        rest = 1.0 - overlap.sum()
        marginal = overlap + (rest * residual(p, q) if rest > 1e-15 else 0.0)
        assert np.max(np.abs(marginal - p)) < 1e-12


def test_review_outcome_shape():
    p = np.array([0.6, 0.4])
    q = np.array([0.4, 0.6])
    rng = RandomSource(11)
    reviewer = [p.copy() for _ in range(3)]
    for _ in range(100):
        out = speculative_review(reviewer, [1, 1], [q, q], mode=DecodeMode.SAMPLING,
                                 rng=rng)
        assert type(out) is tuple and len(out) == 2
        emitted, rows = out
        # the rows the review read, one per emitted token
        assert 1 <= len(emitted) == len(rows) <= 3
        assert all(a is b for a, b in zip(rows, reviewer))


# ---------------------------------------------------------------------------
# acceptance rate
# ---------------------------------------------------------------------------

def test_acceptance_probability_monte_carlo():
    # one drafted token passes review at rate sum_x min(p, q) = 0.6, here
    # counted over repeated single-token reviews
    p = np.array([0.7, 0.3])
    q = np.array([0.3, 0.7])
    rng = RandomSource(2024)
    trials = 1_000_000
    accepted = 0
    dists = [p, p]
    for _ in range(trials):
        tok = 0 if rng.uniform() < q[0] else 1
        emitted, _ = speculative_review(dists, [tok], [q], mode=DecodeMode.SAMPLING, rng=rng)
        accepted += len(emitted) - 1
    assert abs(accepted / trials - 0.6) < 0.002


# ---------------------------------------------------------------------------
# SD step: one-draft csd_step
# ---------------------------------------------------------------------------

def _sd_step(target, draft, k, prefix, mode, rng):
    """One outermost review of k drafted tokens: (emitted tokens, accepted)."""
    trace = GenerationTrace()
    cfg = CascadeConfig(target, [draft], KMatrix([[k]]), mode, k + 1, rng.seed)
    emitted, _ = csd_step(cfg, prefix, rng, trace)
    return emitted, trace.steps[-1].accepted


def test_sd_step_self_agreement():
    m = _const_model([0.2, 0.5, 0.3])
    emitted, accepted = _sd_step(m, m, 4, [0], DecodeMode.GREEDY, RandomSource(0))
    assert accepted == 4
    assert emitted == [1, 1, 1, 1, 1]


def test_sd_step_guaranteed_rejection():
    target = _const_model([1.0, 0.0])
    draft = _const_model([0.0, 1.0])
    emitted, accepted = _sd_step(target, draft, 1, [0], DecodeMode.SAMPLING,
                                 RandomSource(0))
    assert accepted == 0
    assert len(emitted) == 1
    assert emitted == [0]


def test_sd_step_budget_accounting():
    target = _CountingModel([0.2, 0.8], "t")
    draft = _CountingModel([0.5, 0.5], "d")
    _sd_step(target, draft, 6, [0], DecodeMode.GREEDY, RandomSource(0))
    assert target.n_evaluate == 1
    # one model call per drafted token, read straight from `distribution`
    assert draft.n_distribution == 6
    assert draft.n_evaluate == 0


def test_sd_step_greedy_exactness_any_draft():
    # greedy l=1 emits the target argmax sequence no matter how bad the draft is
    rng = np.random.default_rng(5)
    target = _const_model(normalize(rng.random(6)))
    for _ in range(10):
        draft = _const_model(normalize(rng.random(6)))
        emitted, _ = _sd_step(target, draft, 5, [0], DecodeMode.GREEDY, RandomSource(1))
        am = int(np.argmax(target.distribution([])))
        assert all(t == am for t in emitted)


def test_sd_step_k_validation():
    m = _const_model([0.5, 0.5])
    with pytest.raises(ContractViolation):
        _sd_step(m, m, 0, [0], DecodeMode.GREEDY, RandomSource(0))
