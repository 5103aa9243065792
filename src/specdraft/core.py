"""Vocabulary, probability distributions, seeded randomness, and the model interface.

Distributions are dense 1-D float64 numpy arrays over a fixed vocabulary.
All models implement :class:`LanguageModel`; simple per-position conditional
models subclass :class:`ContextConditionedModel` instead.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from numbers import Real
from typing import Optional, Sequence

import numpy as np

SUM_TOL = 1e-9

BOS_PIECE = "<bos>"
EOS_PIECE = "<eos>"
UNK_PIECE = "<unk>"


class DegenerateDistribution(ValueError):
    """An operation would produce an all-zero probability vector."""


class ContractViolation(ValueError):
    """An argument violated an operation's precondition."""


class TrainingError(ValueError):
    """Model training received unusable input."""


class ConstructionError(ValueError):
    """Requested object cannot be constructed from the given parameters."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@contextmanager
def reading(what: str, error: type = ConfigError):
    """Read outside input under one rule: a key it lacks, or a value that
    does not fit (any TypeError or ValueError), raises `error` naming `what`."""
    try:
        yield
    except KeyError as err:
        raise error(f"{what} lacks required key {err}") from None
    except (TypeError, ValueError) as err:
        raise error(f"{what}: {err}") from None


def integer(value, what: str, least: Optional[int] = 0) -> int:
    """`value` as an int if it is a whole number >= `least` (any whole number
    when `least` is None); anything else (a bool, a string, 2.7, infinity) is
    a ContractViolation naming `what`."""
    if (isinstance(value, Real) and not isinstance(value, bool) and value % 1 == 0
            and (least is None or value >= least)):
        return int(value)
    floor = "" if least is None else f" >= {least}"
    raise ContractViolation(f"{what} {value!r} is not an integer{floor}")


def real(value, what: str) -> float:
    """`value` as a float if it is a real number; anything else (a bool, a
    string such as "0.5") is a ContractViolation naming `what`."""
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise ContractViolation(f"{what} {value!r} is not a number")


class Vocab:
    """Immutable token vocabulary: piece strings indexed by contiguous ids."""

    def __init__(self, pieces: Sequence[str]):
        pieces = tuple(pieces)
        if len(pieces) < 2:
            raise ConstructionError("vocabulary needs at least 2 pieces")
        if len(set(pieces)) != len(pieces):
            raise ConstructionError("duplicate pieces in vocabulary")
        self.pieces = pieces
        self._index = {p: i for i, p in enumerate(pieces)}

    @property
    def size(self) -> int:
        return len(self.pieces)

    def piece_of(self, token_id: int) -> str:
        if not 0 <= token_id < self.size:
            raise ContractViolation(f"token id {token_id} out of range [0, {self.size})")
        return self.pieces[token_id]

    def id_of(self, piece: str) -> Optional[int]:
        return self._index.get(piece)

    @property
    def bos_id(self) -> Optional[int]:
        return self._index.get(BOS_PIECE)

    @property
    def eos_id(self) -> Optional[int]:
        return self._index.get(EOS_PIECE)

    @property
    def unk_id(self) -> Optional[int]:
        return self._index.get(UNK_PIECE)

    @classmethod
    def byte_level(cls) -> "Vocab":
        """Vocabulary of the 256 byte values plus bos/eos/unk specials."""
        specials = (BOS_PIECE, EOS_PIECE, UNK_PIECE)
        return cls(specials + tuple(chr(b) for b in range(256)))

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "Vocab":
        specials = (BOS_PIECE, EOS_PIECE, UNK_PIECE)
        return cls(specials + tuple(sorted(set(words).difference(specials))))

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __repr__(self):
        return f"Vocab(size={self.size})"


def normalize(weights) -> np.ndarray:
    """Scale a non-negative weight vector to sum to 1."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 1:
        raise ContractViolation("weights must be a non-empty 1-D vector")
    if np.any(w < 0):
        raise ContractViolation("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise DegenerateDistribution("all-zero weight vector")
    return w / total


def residual(p_target: np.ndarray, p_draft: np.ndarray) -> np.ndarray:
    """normalize(max(0, p_target - p_draft)) elementwise.

    Raises DegenerateDistribution when the clipped difference has no mass
    (p_target == p_draft); callers fall back to sampling p_target directly.
    """
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(p_draft, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractViolation("distributions live on different vocabularies")
    diff = np.maximum(p - q, 0.0)
    total = float(diff.sum())
    if total <= 0.0:
        raise DegenerateDistribution("zero residual: target equals draft")
    return diff / total


class RandomSource:
    """Deterministic uniform stream; identical seed, identical stream."""

    def __init__(self, seed: int, _seq: Optional[np.random.SeedSequence] = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def uniform(self) -> float:
        """Next uniform draw on [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def split(self, n: int) -> list:
        """n independent child streams derived from this stream's seed sequence.

        Children are produced by SeedSequence.spawn on a fresh copy of this
        stream's sequence, so the split is deterministic, order-stable and
        idempotent, and a child's children differ from its siblings.
        """
        seq = np.random.SeedSequence(self._seq.entropy, spawn_key=self._seq.spawn_key,
                                     pool_size=self._seq.pool_size)
        return [RandomSource(self.seed, _seq=c) for c in seq.spawn(n)]


def sample(dist: np.ndarray, rng: RandomSource, cdf: Optional[np.ndarray] = None) -> int:
    """Inverse-CDF sample over ascending token-id order.

    `cdf`, if given, must be `dist.cumsum()`, kept by a caller that samples
    one row many times.  A draw at or past the last CDF value (a row summing
    to just under 1) lands on the last token with positive mass, never on a
    zero-mass one.
    """
    u = rng.uniform()
    if cdf is None:
        cdf = dist.cumsum()
    idx = int(cdf.searchsorted(u, side="right"))
    if idx < len(dist):
        return idx
    return int(np.flatnonzero(dist > 0)[-1])


def greedy_token(dist: np.ndarray) -> int:
    """Argmax with ties broken by lowest token id."""
    return int(dist.argmax())


class LanguageModel(ABC):
    """Parallel next-token scorer over a fixed vocabulary.

    Implementations are immutable after construction and safe to share
    across concurrent readers.  `evaluate` must be pure.
    """

    def __init__(self, vocab: Vocab, cost_weight: float, descriptor: str):
        if not 0 <= cost_weight < np.inf:
            raise ConstructionError(f"cost_weight {cost_weight!r} is not a finite number >= 0")
        self.vocab = vocab
        self.cost_weight = float(cost_weight)
        self.descriptor = descriptor

    #: whether repeated identical queries are guaranteed identical answers
    deterministic: bool = True
    #: the tokens one `propose` call drafts
    span: int = 1

    @abstractmethod
    def evaluate(self, tokens: Sequence[int], start: int) -> Sequence[np.ndarray]:
        """A read-only sequence of one normalized distribution per position p
        in [start, len(tokens)+1], supporting len, indexing, slicing and
        iteration.

        The distribution at position p conditions on tokens[:p-1] (positions
        are 1-based); the final entry scores the next token after the full
        sequence.  A model may return a list, or build each row only when it
        is first read, so that a review that stops early builds no later row;
        either way a later change to `tokens` changes no row.
        """

    def _check_start(self, tokens: Sequence[int], start: int) -> None:
        if not 1 <= start <= len(tokens) + 1:
            raise ContractViolation(
                f"start={start} out of bounds for sequence of length {len(tokens)}"
            )

    def _next_row(self, tokens: Sequence[int], greedy: bool):
        """(row, cdf): this model's row for the token after `tokens`, and for
        sampling the row's cumulative sums if the model keeps them, else None
        (then `sample` sums the row).  Models with cheaper rows than a full
        `evaluate` override this, not `propose`."""
        return self.evaluate(tokens, len(tokens) + 1)[0], None

    def propose(self, tokens: Sequence[int], budget: int, rng: RandomSource,
                greedy: bool):
        """Autoregressively extend `tokens` by `budget` tokens, one row per
        token from `_next_row`; this is the one token-by-token drafting loop.

        Returns (new_tokens, dists): the drafted tokens and this model's
        distribution row at each (its proposal probability for a token is the
        token's entry in the row), drafted in one model call per `span`
        tokens.  Overridden by drafters that emit a whole span per call.
        """
        cur = list(tokens)
        out, dists = [], []
        for _ in range(budget):
            d, cdf = self._next_row(cur, greedy)
            tok = greedy_token(d) if greedy else sample(d, rng, cdf)
            out.append(tok)
            dists.append(d)
            cur.append(tok)
        return out, dists


class ContextConditionedModel(LanguageModel):
    """Base for models defined by a per-position conditional distribution."""

    @abstractmethod
    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Normalized next-token distribution given the preceding tokens."""

    def evaluate(self, tokens: Sequence[int], start: int) -> list:
        self._check_start(tokens, start)
        tokens = list(tokens)
        return [self.distribution(tokens[: p - 1]) for p in range(start, len(tokens) + 2)]
