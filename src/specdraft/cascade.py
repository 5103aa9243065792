"""Recursive cascade drafting: vertical cascade via recursion, horizontal
cascade via the per-rank stage loop, the one outer generation loop, and full
per-run trace accounting.

Vanilla speculative decoding is the one-level cascade (k-matrix [[k]]) and
target-only decoding the zero-level one (no drafts); both run through
`csd_step` and the same outer loop as any deeper cascade.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .core import ConfigError, Context, ContractViolation, LanguageModel, RandomSource, integer
from .kernel import DecodeMode, speculative_review


class KMatrix:
    """Upper-triangular stage budgets, one row per reviewing rank.

    Rank 0 is the target and rank r >= 1 the r-th draft.  `rows[r]` holds
    the horizontal-stage budgets of rank r's reviews: its stages are drafted
    by ranks r+1, r+2, ... in turn.  Constructed from a full square
    list-of-lists, e.g. [[2, 10], [0, 10]]; entries below the diagonal are
    padding, ignored and trimmed away.

    A stage drafts until it has taken at least its entry k.  For a span
    drafter (`MagModel`), which drafts its whole span per call, the entry is
    therefore a minimum: a stage of k = 4 over a span-10 drafter takes 10.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ContractViolation(f"row {i} has {len(row)} entries, expected {n}")
        self.rows = tuple(tuple(integer(v, f"row {i} stage budget", 1) for v in row[i:])
                          for i, row in enumerate(rows))

    def __eq__(self, other):
        return isinstance(other, KMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"KMatrix({[[0] * i + list(row) for i, row in enumerate(self.rows)]})"


@dataclass
class StageRecord:
    """One review event: how much was proposed and what survived."""

    level: int
    model: str
    proposed: int
    accepted: int


class GenerationTrace:
    """Per-run accounting: reviews, per-model invocation counts, and cost."""

    def __init__(self, target_descriptor: str = ""):
        self.steps: List[StageRecord] = []
        self.calls_per_model: Dict[str, int] = {}
        self.cost_weights: Dict[str, float] = {}
        self.tokens_emitted = 0
        self.target_descriptor = target_descriptor
        self.warnings: List[str] = []

    def record_call(self, model: LanguageModel, n: int = 1) -> None:
        self.calls_per_model[model.descriptor] = self.calls_per_model.get(model.descriptor, 0) + n
        self.cost_weights[model.descriptor] = model.cost_weight

    def add_review(self, level: int, model: LanguageModel, proposed: int,
                   accepted: int) -> None:
        self.steps.append(StageRecord(level, model.descriptor, proposed, accepted))

    @property
    def cost_units(self) -> float:
        return sum(n * self.cost_weights[m] for m, n in self.calls_per_model.items())


@dataclass(frozen=True)
class CascadeConfig:
    """Everything one cascade generation run needs, checked when it is built."""

    target: LanguageModel
    drafts: List[LanguageModel]
    k_matrix: KMatrix
    mode: DecodeMode
    max_new_tokens: int
    seed: int
    lenience: float = 1.0
    stop_tokens: frozenset = frozenset()

    def __post_init__(self) -> None:
        if not isinstance(self.mode, DecodeMode):
            raise ConfigError(f"mode {self.mode!r} is not a DecodeMode")
        if not self.lenience >= 1.0:
            raise ConfigError(f"lenience must be >= 1, got {self.lenience}")
        if len(self.k_matrix.rows) != len(self.drafts):
            raise ConfigError(
                f"k-matrix has {len(self.k_matrix.rows)} levels for {len(self.drafts)} drafts"
            )
        for d in self.drafts:
            if d.vocab.size != self.target.vocab.size:
                raise ConfigError(
                    f"draft {d.descriptor!r} has vocabulary size {d.vocab.size}, "
                    f"target {self.target.descriptor!r} has {self.target.vocab.size}"
                )
        if self.mode is DecodeMode.SAMPLING and self.lenience > 1.0:
            raise ConfigError("internal lenience > 1 breaks sampling exactness")


def csd_step(config: CascadeConfig, prefix: Sequence[int], rng: RandomSource,
             trace: GenerationTrace, rank: int = 0, level: int = 0, budget: int = 1):
    """One recursive cascade step of the model at `rank` on the ladder of
    `config`: rank 0 is the target, rank r >= 1 is `config.drafts[r - 1]`.

    Returns (new_tokens, dists): tokens beyond `prefix` (accepted drafts
    plus one correction or bonus token) and the reviewer's distribution row
    at each position, which the caller's own review reads as the proposal
    rows of these tokens.

    Rank r drafts stage j of `config.k_matrix.rows[r]` by recursing into
    rank r + 1 + j, then reviews the drafts.  The target (rank 0) reviews
    strictly, by argmax alone in greedy mode; `config.lenience` applies to
    every other rank.  `level` is the recursion depth that the trace's
    reviews record, so one draft may review at several levels.

    Base case (the last rank): the model proposes directly, `span` tokens
    per call; a span drafter emits its whole span in one call, anything else
    generates `budget` tokens autoregressively.  Target-only decoding is
    this base case at the top, with the default budget of one token per call.
    Every rank drafts into one `Context`: `prefix` itself when it is one (cut
    back to its entry length before the step returns), else one copy of it.
    """
    if not prefix:
        raise ContractViolation("prefix must be non-empty")
    greedy = config.mode is DecodeMode.GREEDY
    reviewer = config.drafts[rank - 1] if rank else config.target
    if rank == len(config.drafts):
        tokens, dists = reviewer.propose(prefix, budget, rng, greedy)
        trace.record_call(reviewer, len(tokens) // reviewer.span)
        return tokens, dists

    cur = prefix if isinstance(prefix, Context) else Context(prefix)
    entry = len(cur)
    dists: List = []
    for drafter, k in enumerate(config.k_matrix.rows[rank], rank + 1):
        taken = 0
        while taken < k:
            t2, d2 = csd_step(config, cur, rng, trace, drafter, level + 1, k - taken)
            cur.extend(t2)
            dists.extend(d2)
            taken += len(t2)

    reviewer_dists = reviewer.evaluate(cur, entry + 1)
    trace.record_call(reviewer)
    emitted, rows = speculative_review(reviewer_dists, cur[entry:], dists,
                                       config.lenience if rank else 1.0, config.mode, rng,
                                       argmax_only=greedy and not rank)
    del cur[entry:]
    trace.add_review(level, reviewer, len(dists), len(emitted) - 1)
    return emitted, rows


def _decode(config: CascadeConfig, prompt: Sequence[int], rng: RandomSource,
            trace: Optional[GenerationTrace] = None):
    """The outer generation loop: outermost cascade steps until the budget or
    a stop token; output truncated at the first stop token.  Records into
    `trace` (a fresh one when None), listing each warning in it once."""
    if not prompt:
        raise ContractViolation("prompt must be non-empty")
    size = config.target.vocab.size
    if min(prompt) < 0 or max(prompt) >= size:
        bad = next(t for t in prompt if not 0 <= t < size)
        raise ContractViolation(f"prompt token id {bad} out of range [0, {size})")
    if trace is None:
        trace = GenerationTrace(config.target.descriptor)
    warnings = [f"model {m.descriptor!r} reports non-deterministic scoring; greedy "
                "equivalence is not guaranteed" for m in [config.target, *config.drafts]
                if config.mode is DecodeMode.GREEDY and not m.deterministic]
    trace.warnings.extend(w for w in dict.fromkeys(warnings) if w not in trace.warnings)
    cur = Context(prompt)
    end = len(cur) + config.max_new_tokens
    while len(cur) < end:
        new, _ = csd_step(config, cur, rng, trace)
        for tok in new:
            cur.append(tok)
            trace.tokens_emitted += 1
            if tok in config.stop_tokens or len(cur) >= end:
                return list(cur), trace
    return list(cur), trace


def generate(config: CascadeConfig, prompt: Sequence[int],
             trace: Optional[GenerationTrace] = None):
    """Cascade generation with the random stream seeded from `config.seed`,
    recorded into `trace` (a fresh one when None); returns (tokens, trace)."""
    return _decode(config, prompt, RandomSource(config.seed), trace)


def sd_generate(target: LanguageModel, draft: LanguageModel, k: int,
                lenience: float, prompt: Sequence[int], max_new_tokens: int,
                mode: DecodeMode, rng: Optional[RandomSource] = None,
                stop_tokens=frozenset()):
    """Vanilla speculative decoding: the one-level cascade with k-matrix [[k]].
    The target is the only reviewer, so `lenience` never applies; it is
    checked as for any cascade."""
    if rng is None:
        rng = RandomSource(0)
    config = CascadeConfig(target, [draft], KMatrix([[k]]), mode, max_new_tokens,
                           rng.seed, lenience, stop_tokens)
    return _decode(config, prompt, rng)


def autoregressive_generate(model: LanguageModel, prompt: Sequence[int],
                            max_new_tokens: int,
                            mode: DecodeMode = DecodeMode.GREEDY,
                            rng: Optional[RandomSource] = None,
                            stop_tokens=frozenset()):
    """Plain one-token-at-a-time generation, the zero-level cascade; the
    baseline every comparison is anchored to.  One model call per emitted
    token (per emitted span, for a span drafter)."""
    if rng is None:
        rng = RandomSource(0)
    config = CascadeConfig(model, [], KMatrix([]), mode, max_new_tokens, rng.seed,
                           stop_tokens=stop_tokens)
    return _decode(config, prompt, rng)
