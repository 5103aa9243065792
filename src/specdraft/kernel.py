"""Single-review speculative sampling: the accept/reject/resample primitive.

A review takes k proposed tokens with the proposer's distribution row at each,
scans them against the reviewer's parallel distributions, and emits the
accepted prefix plus either a correction token (on rejection) or a bonus token
(on full acceptance).
"""
from __future__ import annotations

import enum
from operator import getitem
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import ContractViolation, RandomSource, pick, sample


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
    proposal probability q(x) of a token is its entry in that row, and every
    q(x) must lie in (0, 1].  A greedy review's argmax of a reviewer row `p`
    is `core.pick(p, rng, True)`, and a sampled rejection of a draft from row
    `q` emits `core.pick(p, rng, False, q)`.  A sampled review needs `rng`.
    `reviewer_dists` holds one distribution per draft position plus one for
    the bonus position; they are read in order by iteration, so a lazy
    sequence builds no row past the first rejection.  `argmax_only` restricts
    greedy acceptance to exact argmax matches, so it never reads p(x); it is
    what the outermost target review uses so that greedy output is
    byte-identical to target-only decoding.
    """
    l = check_lenience(lenience)
    greedy = mode is DecodeMode.GREEDY
    if not greedy and rng is None:
        raise ContractViolation("a sampled review needs an rng")
    k = len(tokens)
    if len(proposal_dists) != k:
        raise ContractViolation(
            f"{k} draft tokens but {len(proposal_dists)} proposal distributions"
        )
    if len(reviewer_dists) != k + 1:
        raise ContractViolation(
            f"need {k + 1} reviewer distributions for {k} draft tokens, got {len(reviewer_dists)}"
        )
    q = list(map(float, map(getitem, proposal_dists, tokens)))
    for q_tok in q:
        if not 0.0 < q_tok <= 1.0:
            raise ContractViolation(f"proposal probability {q_tok} outside (0, 1]")

    emitted: list = []
    rows: list = []
    reviewed = iter(reviewer_dists)
    for i, (tok, q_tok, p) in enumerate(zip(tokens, q, reviewed)):
        rows.append(p)
        if greedy:
            am = pick(p, rng, True)
            if tok == am or (not argmax_only and q_tok <= l * float(p[tok])):
                emitted.append(tok)
                continue
            emitted.append(am)
            return emitted, rows
        # sampling mode
        p_tok = float(p[tok])
        if q_tok <= l * p_tok:
            accept = True
        else:
            # reject with probability 1 - l*p/q, clamped to [0, 1]
            reject_p = min(1.0, max(0.0, 1.0 - l * p_tok / q_tok))
            accept = rng.uniform() >= reject_p
        if accept:
            emitted.append(tok)
            continue
        emitted.append(pick(p, rng, False, proposal_dists[i]))
        return emitted, rows

    # full acceptance: bonus token from the trailing distribution (zip
    # stops at the last token before it takes a row); a sampled one is not
    # `pick`ed, so no row keeps sums for a bonus draw
    bonus_dist = next(reviewed)
    rows.append(bonus_dist)
    emitted.append(pick(bonus_dist, rng, True) if greedy else sample(bonus_dist, rng))
    return emitted, rows
