"""Single-review speculative sampling: the accept/reject/resample primitive.

A review takes k proposed tokens with the proposer's distribution row at each,
scans them against the reviewer's parallel distributions, and emits the
accepted prefix plus either a correction token (on rejection) or a bonus token
(on full acceptance).
"""
from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

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


def speculative_review(
    reviewer_dists: Sequence[np.ndarray],
    tokens: Sequence[int],
    proposal_dists: Sequence[np.ndarray],
    lenience: float = 1.0,
    mode: DecodeMode = DecodeMode.SAMPLING,
    rng: Optional[RandomSource] = None,
    argmax_only: bool = False,
) -> Tuple[list, list]:
    """Review drafted `tokens` against the reviewer's distributions.

    Returns (emitted, rows), the record every cascade step returns: the
    `len(emitted) - 1` accepted drafted tokens plus one correction or bonus
    token, and `rows`, the reviewer row read at each emitted token.

    `proposal_dists` holds the proposer's row at each draft position; the
    proposal probability q(x) of a token is its entry in that row, and the
    row itself gives the residual on a sampled rejection.  `reviewer_dists`
    holds one distribution per draft position plus one for the bonus
    position.  `argmax_only` restricts greedy acceptance to exact argmax
    matches; it is what the outermost target review uses so that greedy
    output is byte-identical to target-only decoding.
    """
    l = check_lenience(lenience)
    k = len(tokens)
    if len(proposal_dists) != k:
        raise ContractViolation(
            f"{k} draft tokens but {len(proposal_dists)} proposal distributions"
        )
    if len(reviewer_dists) != k + 1:
        raise ContractViolation(
            f"need {k + 1} reviewer distributions for {k} draft tokens, got {len(reviewer_dists)}"
        )
    q = [float(row[tok]) for row, tok in zip(proposal_dists, tokens)]
    for q_tok in q:
        if not 0.0 < q_tok <= 1.0:
            raise ContractViolation(f"proposal probability {q_tok} outside (0, 1]")

    emitted: list = []
    rows: list = []
    for i, (tok, q_tok) in enumerate(zip(tokens, q)):
        p = reviewer_dists[i]
        rows.append(p)
        p_tok = float(p[tok])
        if mode is DecodeMode.GREEDY:
            am = greedy_token(p)
            ok = tok == am or (not argmax_only and q_tok <= l * p_tok)
            if ok:
                emitted.append(tok)
                continue
            emitted.append(am)
            return emitted, rows
        # sampling mode
        if q_tok <= l * p_tok:
            accept = True
        else:
            # reject with probability 1 - l*p/q, clamped to [0, 1]
            reject_p = min(1.0, max(0.0, 1.0 - l * p_tok / q_tok))
            accept = rng.uniform() >= reject_p
        if accept:
            emitted.append(tok)
            continue
        try:
            res = residual(p, proposal_dists[i])
        except DegenerateDistribution:
            res = p  # identical distributions: any draw from p is exact
        emitted.append(sample(res, rng))
        return emitted, rows

    # full acceptance: bonus token from the trailing distribution
    bonus_dist = reviewer_dists[k]
    rows.append(bonus_dist)
    emitted.append(greedy_token(bonus_dist) if mode is DecodeMode.GREEDY
                   else sample(bonus_dist, rng))
    return emitted, rows


def acceptance_probability(p_target: np.ndarray, p_draft: np.ndarray,
                           lenience: float = 1.0) -> float:
    """Probability that one drafted token passes review: sum_x min(q, l*p)."""
    l = check_lenience(lenience)
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(p_draft, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractViolation("distributions live on different vocabularies")
    return min(1.0, float(np.minimum(q, l * p).sum()))

