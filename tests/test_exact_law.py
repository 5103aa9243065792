"""Exact law of sampled cascades deeper than one level.

The oracle enumerates, branch by branch, the law of the first tokens that
`generate` emits in sampling mode, over criterion 02's V=5 last-token toy
family with two more drafts.  It follows `csd_step`: each rank drafts its
stages by recursing into the ranks below, and reviews the drafts against the
rows of the rank that drafted each token, with rejection laws built from
`core.residual`.  The first n emitted tokens depend only on the first n
drafted ones, so drafting stops once a review has n tokens to read.
"""
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from specdraft.cascade import CascadeConfig, KMatrix, generate
from specdraft.core import DegenerateDistribution, residual
from specdraft.kernel import DecodeMode

from test_acceptance import _RowModel, _toy_family

NEW = 3  # new tokens whose joint law is enumerated
PROMPT = [0]
SHAPES = {
    "1-level": [[3]],
    "2-level": [[2, 3], [0, 3]],
    "3-level": [[2, 2, 2], [0, 2, 2], [0, 0, 2]],
}


def _family():
    """(target, drafts): criterion 02's target and draft, then two drafts
    that disagree with both."""
    target, draft = _toy_family()
    base_2 = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
    base_3 = np.array([0.3, 0.1, 0.2, 0.25, 0.15])
    return target, [draft,
                    _RowModel([np.roll(base_2, t + 1) for t in range(5)], "toy-draft-2"),
                    _RowModel([np.roll(base_3, t + 4) for t in range(5)], "toy-draft-3")]


def _add(law, key, w):
    law[key] = law.get(key, 0.0) + w


def _cascade_law(target, drafts, k_rows, lenience, n=NEW, last=PROMPT[-1]):
    """{tokens: probability} of the first `n` tokens `generate` emits after a
    prompt ending in `last`, for the ladder `target` <- `drafts` with stage
    budgets `k_rows`, reviewing at `lenience` below the target."""
    models = [target, *drafts]

    def row(rank, prev):
        return models[rank].distribution([prev])

    @lru_cache(maxsize=None)
    def step(rank, prev, budget, need):
        """The law of one cascade step of `rank` after token `prev`, each
        outcome cut to its first `need` tokens."""
        if rank == len(drafts):  # the last rank drafts autoregressively
            law = {(): 1.0}
            for _ in range(min(budget, need)):
                law = {s + (x,): w * px for s, w in law.items()
                       for x, px in enumerate(row(rank, (s or (prev,))[-1])) if px > 0}
            return law
        # stages: (drafted tokens, rank that emitted each) -> probability
        drafted = {((), ()): 1.0}
        for drafter, k in enumerate(k_rows[rank][rank:], rank + 1):
            todo = {(toks, who, 0): w for (toks, who), w in drafted.items()}
            drafted = {}
            while todo:
                (toks, who, taken), w = todo.popitem()
                if taken >= k or len(toks) >= need:
                    _add(drafted, (toks, who), w)
                    continue
                sub_law = step(drafter, toks[-1] if toks else prev, k - taken, need - len(toks))
                for sub, q in sub_law.items():
                    _add(todo, (toks + sub, who + (drafter,) * len(sub), taken + len(sub)), w * q)
        # the review of `rank`; the target reviews strictly
        lv = lenience if rank else 1.0
        law = {}
        for (toks, who), w in drafted.items():
            before = prev
            for i, (x, d) in enumerate(zip(toks, who)):
                p, q = row(rank, before), row(d, before)
                accept = min(1.0, lv * p[x] / q[x])
                if accept < 1.0:
                    try:
                        res = residual(p, q)
                    except DegenerateDistribution:
                        res = p
                    for c, pc in enumerate(res):
                        if pc > 0:
                            _add(law, toks[:i] + (c,), w * (1.0 - accept) * pc)
                w *= accept
                before = x
            if len(toks) >= need:
                _add(law, toks[:need], w)
            else:  # every draft accepted: the bonus token
                for c, pc in enumerate(row(rank, before)):
                    if pc > 0:
                        _add(law, toks + (c,), w * pc)
        return law

    law, done = {(): 1.0}, {}
    while law:
        seq, w = law.popitem()
        if len(seq) >= n:
            _add(done, seq[:n], w)
            continue
        for sub, q in step(0, seq[-1] if seq else last, 1, n - len(seq)).items():
            _add(law, seq + sub, w * q)
    return done


def _target_law(target, n=NEW, last=PROMPT[-1]):
    law = {(): 1.0}
    for _ in range(n):
        law = {s + (x,): w * px for s, w in law.items()
               for x, px in enumerate(target.distribution([(s or (last,))[-1]])) if px > 0}
    return law


def _tv(a, b):
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sampling_cascade_law_equals_the_target_law(shape):
    target, drafts = _family()
    k_rows = SHAPES[shape]
    law = _cascade_law(target, drafts[:len(k_rows)], k_rows, 1.0)
    want = _target_law(target)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    gap = max(abs(law.get(k, 0.0) - want.get(k, 0.0)) for k in set(law) | set(want))
    assert gap <= 1e-12


@pytest.mark.parametrize("shape", ["2-level", "3-level"])
def test_inner_lenience_moves_the_sampled_law(shape):
    # the engine refuses sampling at inner lenience > 1; the oracle shows why
    target, drafts = _family()
    k_rows = SHAPES[shape]
    law = _cascade_law(target, drafts[:len(k_rows)], k_rows, 3.0)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    assert _tv(law, _target_law(target)) > 0.05


def test_generate_samples_follow_the_exact_law():
    # seeds 0..3999 were fixed before the first run; an outcome whose
    # expected count is below 5 is pooled with the other rare ones
    target, drafts = _family()
    k_rows = SHAPES["3-level"]
    law = _cascade_law(target, drafts, k_rows, 1.0)
    n = 4000
    counts = {}
    for seed in range(n):
        cfg = CascadeConfig(target, drafts, KMatrix(k_rows), DecodeMode.SAMPLING, NEW, seed)
        out, _ = generate(cfg, PROMPT)
        _add(counts, tuple(out[len(PROMPT):]), 1)
    assert set(counts) <= set(law)
    common = [k for k in law if law[k] * n >= 5]
    observed = [counts.get(k, 0) for k in common] + [n - sum(counts.get(k, 0) for k in common)]
    expected = [law[k] * n for k in common] + [n * (1.0 - sum(law[k] for k in common))]
    assert stats.chisquare(observed, expected).pvalue >= 0.001
