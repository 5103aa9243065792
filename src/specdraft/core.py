"""Vocabulary, probability distributions, seeded randomness, the model
interface, and the decode's token buffer.

Distributions are dense 1-D float64 numpy arrays over a fixed vocabulary.
Every model is a :class:`LanguageModel`, defined by its `distribution`, which
`propose` drafts from and `evaluate` reads lazily through one row sequence.
A decode owns one :class:`Context` that every model reads and none changes: a
cascade step appends its drafts and cuts them off after its review.  Its `text`
mirrors it as one code point per token id, `chr(t)`, for searches at C speed.
Any index of the live context lives there, so models hold no per-decode state.
"""
from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from collections import abc
from contextlib import contextmanager
from numbers import Real
from typing import Optional, Sequence, Tuple

import numpy as np

SUM_TOL = 1e-9

BOS_PIECE = "<bos>"
EOS_PIECE = "<eos>"
UNK_PIECE = "<unk>"

#: the most pieces a vocabulary holds: a `Context` mirrors token id t as chr(t)
MAX_VOCAB_SIZE = sys.maxunicode + 1
#: the codec that reads an `array("I")` of code points in native byte order
_UTF32 = f"utf-32-{sys.byteorder[0]}e"


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
        if len(pieces) > MAX_VOCAB_SIZE:
            raise ConstructionError(f"vocabulary of {len(pieces)} pieces exceeds {MAX_VOCAB_SIZE}")
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
    (p_target == p_draft); `rejection_row` then falls back to p_target.
    """
    p = np.asarray(p_target, dtype=np.float64)
    q = np.asarray(p_draft, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractViolation("distributions live on different vocabularies")
    diff = p - q
    np.maximum(diff, 0.0, out=diff)
    total = float(diff.sum())
    if total <= 0.0:
        raise DegenerateDistribution("zero residual: target equals draft")
    return np.divide(diff, total, out=diff)


def rejection_row(p_target: np.ndarray, p_draft: np.ndarray) -> np.ndarray:
    """The row a rejected draft is redrawn from: the residual, or p_target
    when the rows are equal, since any draw from it is then exact."""
    try:
        return residual(p_target, p_draft)
    except DegenerateDistribution:
        return p_target


class RandomSource:
    """Deterministic uniform stream; identical seed, identical stream.

    `uniform` serves blocks of 64 draws taken in one generator call; `uniforms`
    hands out what is left of a block before fresh draws.  PCG64 fills an array
    draw by draw, so this is its one-at-a-time stream, in order and in bits."""

    def __init__(self, seed: int, _seq: Optional[np.random.SeedSequence] = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))
        self._block: list = []  # the block's unserved draws, the next one last

    def uniform(self) -> float:
        """Next uniform draw on [0, 1)."""
        if not self._block:
            self._block = self._gen.random(64).tolist()[::-1]
        return self._block.pop()

    def uniforms(self, shape) -> np.ndarray:
        out = np.empty(shape)
        flat = out.reshape(-1)
        head = [self.uniform() for _ in range(min(flat.size, len(self._block)))]
        flat[:len(head)] = head
        self._gen.random(out=flat[len(head):])
        return out

    def split(self, n: int) -> list:
        """n independent child streams derived from this stream's seed sequence.

        Children are produced by SeedSequence.spawn on a fresh copy of this
        stream's sequence, so the split is deterministic, order-stable and
        idempotent, and a child's children differ from its siblings.
        """
        seq = np.random.SeedSequence(self._seq.entropy, spawn_key=self._seq.spawn_key,
                                     pool_size=self._seq.pool_size)
        return [RandomSource(self.seed, _seq=c) for c in seq.spawn(n)]


def sample(dist: np.ndarray, rng: RandomSource, cdf: Optional[Sequence[float]] = None) -> int:
    """Inverse-CDF sample over ascending token-id order.

    `cdf`, if given, is any ascending sequence of the row's cumulative sums
    (`dist.cumsum()`) that `bisect` can search, kept by a caller that samples
    one row many times; without it numpy sums and searches the row.  A draw
    at or past the last CDF value (a row summing to just under 1) lands on
    the last token with positive mass, never on a zero-mass one.
    """
    u = rng.uniform()
    idx = int(dist.cumsum().searchsorted(u, side="right")) if cdf is None else bisect_right(cdf, u)
    if idx < len(dist):
        return idx
    return int(np.flatnonzero(dist > 0)[-1])


def greedy_token(dist: np.ndarray) -> int:
    """Argmax with ties broken by lowest token id."""
    return int(dist.argmax())


class KeptRow(np.ndarray):
    """A read-only row with what `pick` reads to choose from it: `top`, its
    greedy token; `sums`, its cumulative sums as an `array('d')` that `bisect`
    searches, made on the first sampled draw; and `residuals`, made on the
    first rejection, keyed `id(q)` for each read-only proposal row `q`: the
    sums of `rejection_row(p, q)` at its positive entries, their token ids
    (the last twice, for a draw past the last sum) and `q`, kept so no other
    row takes its id.  A copy, view or arithmetic result of a kept row is a
    `KeptRow` with no slot set, which `pick` reads as any other array."""

    __slots__ = ("top", "sums", "residuals")

    @classmethod
    def of(cls, row: np.ndarray) -> "KeptRow":
        row.flags.writeable = False
        kept = row.view(cls)
        kept.top, kept.sums, kept.residuals = greedy_token(row), None, None
        return kept


def pick(p: np.ndarray, rng: Optional[RandomSource], greedy: bool,
         q: Optional[np.ndarray] = None) -> int:
    """The one rule every emitted token is chosen by: `greedy_token(p)` when
    `greedy`, drawing no uniform; else one uniform's draw from `p`, or from
    `rejection_row(p, q)` when a proposal row `q` is given.  A `KeptRow` is
    picked from the values it keeps, with the same token, unless `q` is
    writeable and so may be new on every call."""
    top = getattr(p, "top", None)  # None for any other array
    if top is None or (q is not None and q.flags.writeable):
        if greedy:
            return greedy_token(p)
        return sample(p if q is None else rejection_row(p, q), rng)
    if greedy:
        return top
    if q is None:
        if p.sums is None:
            p.sums = array("d", p.cumsum().tobytes())
        return sample(p, rng, p.sums)
    if p.residuals is None:
        p.residuals = {}
    kept = p.residuals.get(id(q))
    if kept is None:
        row = rejection_row(p, q)
        at = np.flatnonzero(row)  # the full CDF is flat elsewhere
        kept = p.residuals[id(q)] = (row.cumsum()[at].tolist(), at.tolist() + [int(at[-1])], q)
    return kept[1][bisect_right(kept[0], rng.uniform())]


class LanguageModel(ABC):
    """Parallel next-token scorer over a fixed vocabulary.

    `distribution` and `evaluate` must be pure: a row depends on its context
    alone.  A model may still fill caches as it is read.  An n-gram caches
    each row it builds, under its tabled context and under an alias for each
    distinct context read, which grows with them and is not bounded; and a
    `KeptRow` makes its sums and residual tables on first use.  Concurrent
    readers stay safe: each value is a function of its row, a reader that
    loses a race builds an equal value, the first row stored wins, and each
    dict operation is atomic under the GIL.
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
    #: how many of a context's last tokens a row depends on; None, all of them
    window: Optional[int] = None

    @abstractmethod
    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Normalized next-token distribution given the preceding tokens."""

    def _row(self, ctx: Tuple[int, ...]) -> np.ndarray:
        """The row after `ctx`, a context's last `window` tokens, as `evaluate` reads it."""
        return self.distribution(ctx)

    def evaluate(self, tokens: Sequence[int], start: int) -> Sequence[np.ndarray]:
        """A read-only sequence of one normalized distribution per position p
        in [start, len(tokens)+1], supporting len, indexing, slicing and
        iteration.

        The distribution at position p conditions on tokens[:p-1] (positions
        are 1-based); the final entry scores the next token after the full
        sequence.  Each row is built only when it is first read, so a review
        that stops early builds no later row, and a later change to `tokens`
        changes no row.
        """
        self._check_start(tokens, start)
        return _Rows(self, tokens, start)

    def _check_start(self, tokens: Sequence[int], start: int) -> None:
        if not 1 <= start <= len(tokens) + 1:
            raise ContractViolation(
                f"start={start} out of bounds for sequence of length {len(tokens)}"
            )

    def propose(self, tokens: Sequence[int], budget: int, rng: RandomSource,
                greedy: bool):
        """Autoregressively extend `tokens` by `budget` tokens, one
        `distribution` row per token; this is the one token-by-token
        drafting loop.  Each token is the row's `pick`.

        Returns (new_tokens, dists): the drafted tokens and this model's
        distribution row at each (its proposal probability for a token is the
        token's entry in the row), drafted in one model call per `span`
        tokens.  Overridden by drafters that emit a whole span per call.
        Only the last `window` tokens are copied, not the whole context.
        """
        cur = list(tokens if self.window is None else tokens[max(0, len(tokens) - self.window):])
        out, dists = [], []
        for _ in range(budget):
            d = self.distribution(cur)
            tok = pick(d, rng, greedy)
            out.append(tok)
            dists.append(d)
            cur.append(tok)
        return out, dists


class _Rows(abc.Sequence):
    """`model.evaluate(tokens, start)`: row i is `model._row` at position
    `start + i`, read when it is read, from a copy of only the tokens the rows
    condition on, so a later change to `tokens` changes no row."""

    __slots__ = ("_model", "_window", "_tokens", "_end", "_len")

    def __init__(self, model: LanguageModel, tokens: Sequence[int], start: int):
        window = len(tokens) if model.window is None else model.window
        first = max(0, start - 1 - window)
        self._model = model
        self._window = window
        self._tokens = tuple(tokens[first:])
        self._end = start - 1 - first  # where row 0's context ends in _tokens
        self._len = len(tokens) - start + 2

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row_to(self._end + j) for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"row index out of range for {self._len} rows")
        return self._row_to(self._end + i)

    def __iter__(self):
        return map(self._row_to, range(self._end, self._end + self._len))

    def _row_to(self, end: int) -> np.ndarray:
        """The row after `_tokens[:end]`, keyed by its last `window` tokens."""
        return self._model._row(self._tokens[max(0, end - self._window):end])


class Context(list):
    """The decode's token buffer, with `text`, its mirror of one code point
    per token id, synced on read from the first token it no longer mirrors.
    Only `append`, `extend` and `del buf[n:]` change it; any other change to
    the list is refused, since the mirror could not follow it."""

    _text = ""
    _valid = 0  # how many of `_text`'s code points still mirror the buffer

    def __delitem__(self, key):
        if not (isinstance(key, slice) and key.stop is None and key.step is None):
            self._refuse()
        list.__delitem__(self, key)
        if len(self) < self._valid:
            self._valid = len(self)

    def _refuse(self, *args, **kwargs):
        raise ContractViolation("a Context changes only by append, extend and del buf[n:]")

    __setitem__ = __imul__ = insert = pop = remove = clear = sort = reverse = _refuse

    @property
    def text(self) -> str:
        if not self._valid == len(self) == len(self._text):
            new = self[self._valid:]  # a first mirror decodes faster than it joins
            self._text = (self._text[:self._valid] + "".join(map(chr, new)) if self._valid else
                          array("I", new).tobytes().decode(_UTF32, "surrogatepass"))
            self._valid = len(self)
        return self._text
