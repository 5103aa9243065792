"""Single-review speculative sampling: the accept/reject/resample primitive.

A review takes k proposed tokens with their proposal probabilities, scans them
against the reviewer's parallel distributions, and emits the accepted prefix
plus either a correction token (on rejection) or a bonus token (on full
acceptance).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ContractViolation,
    DegenerateDistribution,
    RandomSource,
    greedy_token,
    residual,
    sample,
)


class DecodeMode(enum.Enum):
    SAMPLING = "sampling"
    GREEDY = "greedy"


def check_lenience(l: float) -> float:
    if not l >= 1.0:
        raise ContractViolation(f"lenience must be >= 1, got {l}")
    return float(l)


@dataclass
class DraftBatch:
    """k proposed tokens with the proposer's probabilities (and, in sampling
    mode, the proposer's full distributions, needed for residual resampling)."""

    tokens: list
    proposal_probs: list
    proposal_dists: Optional[list] = None

    def __post_init__(self):
        if len(self.tokens) != len(self.proposal_probs):
            raise ContractViolation("tokens and proposal_probs length mismatch")
        if self.proposal_dists is not None and len(self.proposal_dists) != len(self.tokens):
            raise ContractViolation("proposal_dists length mismatch")
        for q in self.proposal_probs:
            if not 0.0 < q <= 1.0:
                raise ContractViolation(f"proposal probability {q} outside (0, 1]")


@dataclass
class ReviewOutcome:
    """Result of one speculative review: len(emitted) == accepted_count + 1."""

    accepted_count: int
    emitted: list
    emitted_probs: list
    rejected: bool


def speculative_review(
    reviewer_dists: Sequence[np.ndarray],
    draft: DraftBatch,
    lenience: float = 1.0,
    mode: DecodeMode = DecodeMode.SAMPLING,
    rng: Optional[RandomSource] = None,
    argmax_only: bool = False,
) -> ReviewOutcome:
    """Review a draft batch against the reviewer's distributions.

    `reviewer_dists` holds one distribution per draft position plus one for
    the bonus position.  `argmax_only` restricts greedy acceptance to exact
    argmax matches; it is what the outermost target review uses so that
    greedy output is byte-identical to target-only decoding.
    """
    l = check_lenience(lenience)
    k = len(draft.tokens)
    if len(reviewer_dists) != k + 1:
        raise ContractViolation(
            f"need {k + 1} reviewer distributions for {k} draft tokens, got {len(reviewer_dists)}"
        )
    if mode is DecodeMode.SAMPLING and draft.proposal_dists is None:
        raise ContractViolation("sampling-mode review requires proposal distributions")

    emitted: list = []
    emitted_probs: list = []
    for i, tok in enumerate(draft.tokens):
        p = reviewer_dists[i]
        p_tok = float(p[tok])
        q_tok = float(draft.proposal_probs[i])
        if mode is DecodeMode.GREEDY:
            am = greedy_token(p)
            ok = tok == am or (not argmax_only and q_tok <= l * p_tok)
            if ok:
                emitted.append(tok)
                emitted_probs.append(p_tok)
                continue
            emitted.append(am)
            emitted_probs.append(float(p[am]))
            return ReviewOutcome(i, emitted, emitted_probs, rejected=True)
        # sampling mode
        if q_tok <= l * p_tok:
            accept = True
        else:
            # reject with probability 1 - l*p/q, clamped to [0, 1]
            reject_p = min(1.0, max(0.0, 1.0 - l * p_tok / q_tok))
            accept = rng.uniform() >= reject_p
        if accept:
            emitted.append(tok)
            emitted_probs.append(p_tok)
            continue
        try:
            res = residual(p, draft.proposal_dists[i])
        except DegenerateDistribution:
            res = p  # identical distributions: any draw from p is exact
        corr = sample(res, rng)
        emitted.append(corr)
        emitted_probs.append(float(p[corr]))
        return ReviewOutcome(i, emitted, emitted_probs, rejected=True)

    # full acceptance: bonus token from the trailing distribution
    bonus_dist = reviewer_dists[k]
    bonus = greedy_token(bonus_dist) if mode is DecodeMode.GREEDY else sample(bonus_dist, rng)
    emitted.append(bonus)
    emitted_probs.append(float(bonus_dist[bonus]))
    return ReviewOutcome(k, emitted, emitted_probs, rejected=False)


def acceptance_probability(p_target: np.ndarray, p_draft: np.ndarray,
                           lenience: float = 1.0) -> float:
    """Probability that one drafted token passes review: sum_x min(q, l*p)."""
    l = check_lenience(lenience)
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(p_draft, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractViolation("distributions live on different vocabularies")
    return min(1.0, float(np.minimum(q, l * p).sum()))

