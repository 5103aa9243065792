"""Statistical language models: interpolated n-grams, the bigram table (the
order-2 n-gram at interpolation weight 1), and the longest-suffix-copy
drafter, which copies from the context and falls back to the bigram table.

All models here are deterministic, immutable after training, and serialize to
a single JSON document (format_version 1) whose probabilities round-trip
bit-faithfully.
"""
from __future__ import annotations

import json
from collections import Counter, abc, defaultdict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    SUM_TOL,
    ConstructionError,
    ContextConditionedModel,
    ContractViolation,
    RandomSource,
    TrainingError,
    Vocab,
    greedy_token,
    integer,
    reading,
    sample,
)

FORMAT_VERSION = 1

DEFAULT_INTERPOLATION = 0.75

# the match corpus of a MagModel, written to saved files as their "policy"
MATCH_PROMPT_AND_GENERATION = "prompt+generation"


def _as_sequences(corpus) -> List[List[int]]:
    if len(corpus) == 0:
        raise TrainingError("empty corpus")
    if isinstance(corpus[0], (int, np.integer)):
        return [list(corpus)]
    seqs = [list(s) for s in corpus if len(s) > 0]
    if not seqs:
        raise TrainingError("empty corpus")
    return seqs


class NGramModel(ContextConditionedModel):
    """Interpolated-backoff n-gram model.

    tables maps a context tuple (length < order) to that context's
    maximum-likelihood next-token probabilities; interpolation at weight w in
    (0, 1] recursively mixes each order with the one below, bottoming out at
    uniform, so every conditional is normalized.  Full support holds only for
    w < 1: at w = 1 a row is the counted row of the longest tabled suffix.

    A context's row depends only on its longest tabled suffix, since shorter
    untabled suffixes skip their interpolation step.  So one read-only row is
    built and cached per tabled context, and every context whose longest
    tabled suffix it is shares that array.  Drafting reads rows straight from
    that cache, and sampled drafting keeps each shared row's cumulative sums
    once, keyed by the row's identity (cached rows live as long as the model).
    `evaluate` looks a position's row up only when a reader asks for it.
    """

    def __init__(self, order: int, vocab: Vocab,
                 tables: Dict[Tuple[int, ...], Dict[int, float]],
                 interpolation: float = DEFAULT_INTERPOLATION,
                 cost_weight: Optional[float] = None,
                 descriptor: Optional[str] = None):
        if order < 1:
            raise ConstructionError("order must be >= 1")
        if not 0.0 < interpolation <= 1.0:
            raise ConstructionError("interpolation weight must be in (0, 1]")
        self.order = order
        self.tables = tables
        self.interpolation = float(interpolation)
        self._cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self._cdfs: Dict[int, np.ndarray] = {}
        n_entries = sum(len(t) for t in tables.values())
        if cost_weight is None:
            cost_weight = float(max(n_entries, 1))
        if descriptor is None:
            descriptor = f"ngram{order}"
        super().__init__(vocab, cost_weight, descriptor)

    def _row(self, ctx: Tuple[int, ...]) -> np.ndarray:
        """The row of `ctx`, at most `order - 1` tokens, built once under its
        longest tabled suffix."""
        row = self._cache.get(ctx)
        if row is not None:
            return row
        key = next((ctx[i:] for i in range(len(ctx)) if ctx[i:] in self.tables), ())
        row = self._cache.get(key)
        if row is None:
            w = self.interpolation
            row = np.full(self.vocab.size, 1.0 / self.vocab.size)
            for n in range(0, len(key) + 1):
                ml = self.tables.get(key[len(key) - n:])
                if ml is not None:
                    row = w * _dense(self.vocab.size, ml) + (1.0 - w) * row
            row.flags.writeable = False
            self._cache[key] = row
        self._cache[ctx] = row
        return row

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self._row(tuple(context[max(0, len(context) - self.order + 1):]))

    def _next_row(self, tokens: Sequence[int], greedy: bool):
        row = self.distribution(tokens)
        if greedy:
            return row, None
        cdf = self._cdfs.get(id(row))
        if cdf is None:
            cdf = self._cdfs[id(row)] = row.cumsum()
        return row, cdf

    def evaluate(self, tokens: Sequence[int], start: int) -> "_Rows":
        """Rows as `ContextConditionedModel.evaluate` gives them, each built
        only when first read (a review stops at its first rejection)."""
        self._check_start(tokens, start)
        return _Rows(self, tokens, start)

    def perplexity(self, corpus) -> float:
        seqs = _as_sequences(corpus)
        logp, n = 0.0, 0
        for seq in seqs:
            for tok, dist in zip(seq, self.evaluate(seq, 1)):
                logp += float(np.log(dist[tok]))
                n += 1
        return float(np.exp(-logp / n))


class _Rows(abc.Sequence):
    """`NGramModel.evaluate(tokens, start)`: row i is the model's row at
    position `start + i`, looked up in (or built into) the row cache when it
    is read.  It keeps only the tokens those rows condition on, copied at
    call time, so it never copies the prefix and a later change to `tokens`
    changes no row."""

    __slots__ = ("_model", "_tokens", "_end", "_len")

    def __init__(self, model: NGramModel, tokens: Sequence[int], start: int):
        first = max(0, start - model.order)
        self._model = model
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
        """The row after `_tokens[:end]`, keyed by its last `order - 1` tokens."""
        return self._model._row(self._tokens[max(0, end - self._model.order + 1):end])


def _counted(seqs: List[List[int]], lengths) -> Dict[Tuple[int, ...], Dict[int, float]]:
    """Each context of a length n in `lengths` with its next-token probabilities
    in token order: one `Counter` of (n+1)-grams per n, freed before the next."""
    tables = {}
    for n in lengths:
        counts: Dict[Tuple[int, ...], Dict[int, int]] = defaultdict(dict)
        grams = chain.from_iterable(zip(*(s[i:] for i in range(n + 1))) for s in seqs)
        for gram, c in Counter(grams).items():
            counts[gram[:-1]][gram[-1]] = c
        for ctx, row in counts.items():
            total = sum(row.values())
            tables[ctx] = {tok: c / total for tok, c in sorted(row.items())}
    return tables


def _dense(size: int, entries: Dict[int, float]) -> np.ndarray:
    """A read-only row over `size` tokens holding `entries`, zero elsewhere."""
    row = np.zeros(size)
    for tok, p in entries.items():
        row[tok] = p
    row.flags.writeable = False
    return row


def train_ngram(corpus, order: int, vocab: Vocab,
                interpolation: float = DEFAULT_INTERPOLATION,
                cost_weight: Optional[float] = None,
                descriptor: Optional[str] = None) -> NGramModel:
    """The interpolated model of the corpus's n-grams of every order up to `order`."""
    if order < 1:
        raise TrainingError("order must be >= 1")
    return NGramModel(order, vocab, _counted(_as_sequences(corpus), range(order)),
                      interpolation, cost_weight, descriptor)


class BigramTable(NGramModel):
    """The bigram drafter, and `MagModel`'s fallback: the order-2 n-gram at
    weight 1.  Its tables hold no `()` context, so the row after a token never
    seen as a predecessor, or after an empty context, is uniform."""

    def __init__(self, vocab: Vocab, tables: Dict[Tuple[int, ...], Dict[int, float]],
                 cost_weight: float = 1.0, descriptor: str = "bigram"):
        super().__init__(2, vocab, tables, 1.0, cost_weight, descriptor)

    def row(self, token: int) -> np.ndarray:
        return self._row((token,))

    @classmethod
    def from_corpus(cls, corpus, vocab: Vocab, **kwargs) -> "BigramTable":
        """Counted as `train_ngram` counts contexts of length 1; `kwargs` go to the constructor."""
        return cls(vocab, _counted(_as_sequences(corpus), (1,)), **kwargs)


def _longest_suffix_starts(generated: Sequence[int], corpus: Sequence[int],
                           ) -> Optional[Tuple[int, int]]:
    """(first_start, match_len) of the longest suffix of `generated` occurring
    in `corpus`, or None if even the last token never occurs."""
    last = generated[-1]
    starts = [j for j in range(len(corpus)) if corpus[j] == last]
    if not starts:
        return None
    m = 1
    while m < len(generated):
        tok = generated[-(m + 1)]
        new = [j - 1 for j in starts if j - 1 >= 0 and corpus[j - 1] == tok]
        if not new:
            break
        starts = new
        m += 1
    return starts[0], m


def mag_propose(generated: Sequence[int], corpus: Sequence[int], n: int = 1,
                ) -> Optional[List[int]]:
    """Copy continuation of the longest suffix match.

    Finds the longest suffix of `generated` occurring contiguously in
    `corpus` (ties broken by first occurrence) and returns up to n tokens
    following it; fewer (possibly zero) if the corpus ends there.  Returns
    None when even the last token of `generated` has no occurrence.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if not generated:
        raise ContractViolation("generated sequence must be non-empty")
    hit = _longest_suffix_starts(generated, corpus)
    if hit is None:
        return None
    start, m = hit
    return list(corpus[start + m:start + m + n])


class MagModel(ContextConditionedModel):
    """Suffix-copy drafter: point mass on the token that followed the first
    occurrence of the context's longest suffix earlier in the context (prompt
    plus generation so far); the bigram row when the last token is new.

    The match corpus is `context[:-1]`, which skips the context's trivial
    match against itself and leaves every match a following token to copy.
    """

    def __init__(self, fallback: BigramTable, span: int = 10,
                 cost_weight: float = 0.0, descriptor: str = "mag"):
        if span < 1:
            raise ConstructionError("span must be >= 1")
        self.fallback = fallback
        self.span = span
        self._one_hot: Dict[int, np.ndarray] = {}
        super().__init__(fallback.vocab, cost_weight, descriptor)

    def _copy_pos(self, context: Sequence[int]) -> Optional[int]:
        """Index in `context` of the token the suffix copy emits next, or None
        when the drafter falls back to the bigram row."""
        if not context:
            return None
        hit = _longest_suffix_starts(context, context[:-1])
        if hit is None:
            return None
        start, m = hit
        return start + m

    def _copy_row(self, token: int) -> np.ndarray:
        row = self._one_hot.get(token)
        if row is None:
            row = self._one_hot[token] = _dense(self.vocab.size, {token: 1.0})
        return row

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        pos = self._copy_pos(context)
        if pos is None:
            return self.fallback.distribution(context)
        return self._copy_row(context[pos])

    def propose(self, tokens: Sequence[int], budget: int, rng: RandomSource,
                greedy: bool):
        """Emit one span of `span` tokens, counted as a single call.

        `budget` is not a cap: a span drafter always drafts its whole span,
        so a cascade stage it fills may take more tokens than its k-matrix
        entry (see `KMatrix`).

        Tokens and rows equal drawing each token from `distribution` in
        turn, with one suffix search per span: once the token at `pos` after
        the first longest match is copied, that match grown by one is the new
        first longest match, so the next copy is `pos + 1`.  Only a fallback
        token needs a fresh search.  A sampled copy still consumes one
        uniform draw, which a one-hot row always maps to its token.
        """
        cur = list(tokens)
        out, dists = [], []
        pos = self._copy_pos(cur)
        for _ in range(self.span):
            if pos is None:
                d = self.fallback.distribution(cur)
                tok = greedy_token(d) if greedy else sample(d, rng)
            else:
                tok = cur[pos]
                d = self._copy_row(tok)
                if not greedy:
                    rng.uniform()
            out.append(tok)
            dists.append(d)
            cur.append(tok)
            pos = self._copy_pos(cur) if pos is None else pos + 1
        return out, dists


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _ctx_key(ctx: Tuple[int, ...]) -> str:
    return ",".join(str(t) for t in ctx)

def _parse_ctx(key: str) -> Tuple[int, ...]:
    with reading(f"table context {key!r}", ConstructionError):
        return tuple(int(t) for t in key.split(",")) if key else ()

def _saved_real(text, what: str) -> float:
    """A real as the writer saves it: the string of its repr, not a JSON number."""
    if not isinstance(text, str):
        raise ConstructionError(f"{what} {text!r} is not a saved real (a string)")
    with reading(what, ConstructionError):
        return float(text)


def _tables_to_json(tables) -> Dict[str, list]:
    # float() on load of repr-formatted decimals is an exact round trip
    return {
        _ctx_key(ctx): [[tok, repr(p)] for tok, p in sorted(row.items())]
        for ctx, row in sorted(tables.items())
    }

def _tables_from_json(obj, size: int, lengths) -> Dict[Tuple[int, ...], Dict[int, float]]:
    """The tables of a saved file, checked as the model's trainer counts them:
    each token id, in a context or a row, an integer in a vocabulary of `size`
    tokens, each context of a length in `lengths`, and each row a distribution
    (every probability in [0, 1], summing to 1 within `SUM_TOL`)."""
    tables = {
        _parse_ctx(key): {integer(tok, f"table context {key!r} token id", None):
                          _saved_real(p, f"table context {key!r} probability") for tok, p in row}
        for key, row in obj.items()
    }
    for ctx, row in tables.items():
        where = f"table context {_ctx_key(ctx)!r}"
        bad = next((t for t in chain(ctx, row) if not 0 <= t < size), None)
        if bad is not None:
            raise ConstructionError(f"{where} holds token id {bad}, "
                                    f"outside the vocabulary [0, {size})")
        if len(ctx) not in lengths:
            raise ConstructionError(f"{where} has {len(ctx)} tokens, a length never read")
        if not (all(0.0 <= p <= 1.0 for p in row.values())
                and abs(sum(row.values()) - 1.0) <= SUM_TOL):
            raise ConstructionError(f"{where} row is not a distribution")
    return tables


def model_to_dict(model) -> dict:
    out = {"format_version": FORMAT_VERSION, "order": 2, "vocab": list(model.vocab.pieces),
           "smoothing": None, "cost_weight": repr(model.cost_weight),
           "descriptor": model.descriptor}
    if isinstance(model, BigramTable):  # before NGramModel, its base
        out.update(type="bigram", tables=_tables_to_json(model.tables))
    elif isinstance(model, NGramModel):
        out.update(type="ngram", order=model.order, tables=_tables_to_json(model.tables),
                   smoothing=repr(model.interpolation))
    elif isinstance(model, MagModel):
        out.update(type="mag", span=model.span, policy=MATCH_PROMPT_AND_GENERATION,
                   tables=_tables_to_json(model.fallback.tables))
    else:
        raise ConstructionError(f"cannot serialize model of type {type(model).__name__}")
    return out


def model_from_dict(obj: dict):
    if obj.get("format_version") != FORMAT_VERSION:
        raise ConstructionError(f"unsupported format_version {obj.get('format_version')}")
    with reading("model file", ConstructionError):
        vocab, kind, saved = Vocab(obj["vocab"]), obj["type"], obj["tables"]
        cost_weight, descriptor = _saved_real(obj["cost_weight"], "cost_weight"), obj["descriptor"]
    if kind == "ngram":
        order = integer(obj.get("order"), "order", 1)
        return NGramModel(order, vocab, _tables_from_json(saved, vocab.size, range(order)),
                          _saved_real(obj.get("smoothing"), "smoothing"), cost_weight, descriptor)
    # a bigram table, `mag`'s fallback included, counts contexts of length 1 only
    tables = _tables_from_json(saved, vocab.size, (1,))
    if kind == "bigram":
        return BigramTable(vocab, tables, cost_weight, descriptor)
    if kind == "mag":
        if obj.get("policy") != MATCH_PROMPT_AND_GENERATION:
            raise ConstructionError(f"unknown match policy {obj.get('policy')!r}")
        return MagModel(BigramTable(vocab, tables), integer(obj.get("span"), "span", 1),
                        cost_weight, descriptor)
    raise ConstructionError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
