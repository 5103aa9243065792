"""Statistical language models: interpolated n-grams, the bigram table (the
order-2 n-gram at interpolation weight 1), and the longest-suffix-copy
drafter, which copies from the context and falls back to the bigram table.
Each is a `LanguageModel`, defined by its `distribution`; an n-gram's rows
read a `window` of `order - 1` tokens, from its row cache.

All models here are deterministic, change only their caches after training
(see `LanguageModel`), and serialize to a single JSON document
(format_version 1) whose probabilities round-trip bit-faithfully.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    SUM_TOL,
    ConstructionError,
    Context,
    ContractViolation,
    KeptRow,
    LanguageModel,
    RandomSource,
    TrainingError,
    Vocab,
    integer,
    pick,
    reading,
)

FORMAT_VERSION = 1

DEFAULT_INTERPOLATION = 0.75

DEFAULT_SPAN = 10

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


class NGramModel(LanguageModel):
    """Interpolated-backoff n-gram model.

    tables maps a context tuple (length < order) to that context's
    maximum-likelihood next-token probabilities; interpolation at weight w in
    (0, 1] recursively mixes each order with the one below, bottoming out at
    uniform, so every conditional is normalized.  Full support holds only for
    w < 1: at w = 1 a row is the counted row of the longest tabled suffix.

    A context's row depends only on its longest tabled suffix, since shorter
    untabled suffixes skip their interpolation step.  So one `KeptRow` is
    built and cached per tabled context, and every context whose longest
    tabled suffix it is shares that array, cached under the context too;
    those aliases grow with the distinct contexts read.  Drafting reads rows
    straight from that cache, and `evaluate`'s rows read it through `_row`,
    as `distribution` does.  The first row stored for a context wins, so
    concurrent readers of one context all get one row.
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
        self.window = order - 1
        self.tables = tables
        self.interpolation = float(interpolation)
        self._cache: Dict[Tuple[int, ...], np.ndarray] = {}
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
            row = self._cache.setdefault(key, KeptRow.of(row))
        return self._cache.setdefault(ctx, row)

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self._row(tuple(context[max(0, len(context) - self.window):]))


def _counted(seqs: List[List[int]], lengths) -> Dict[Tuple[int, ...], Dict[int, float]]:
    """Each context of a length n in `lengths` with its next-token probabilities
    in token order.  One `Counter` pass counts the (n+1)-grams of the longest
    n.  Each shorter gram's count is the sum of the counts of the grams one
    token longer that it starts, plus the number of sequences that end in it;
    levels are derived down to the (n+1)-grams of the shortest n, each freed
    once the next is built."""
    top, low = max(lengths) + 1, min(lengths) + 1
    counts = Counter(chain.from_iterable(zip(*(s[i:] for i in range(top))) for s in seqs))
    tables = {}
    for m in range(top, low - 1, -1):  # grams of m tokens: contexts of m - 1
        rows: Dict[Tuple[int, ...], Dict[int, int]] = defaultdict(dict)
        for gram, c in counts.items():
            rows[gram[:-1]][gram[-1]] = c
        totals = {ctx: sum(row.values()) for ctx, row in rows.items()}
        if m - 1 in lengths:
            for ctx, row in rows.items():
                tables[ctx] = {tok: c / totals[ctx] for tok, c in sorted(row.items())}
        if m > low:
            counts = Counter(tuple(s[1 - m:]) for s in seqs if len(s) >= m - 1)
            counts.update(totals)
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

    @classmethod
    def from_corpus(cls, corpus, vocab: Vocab, **kwargs) -> "BigramTable":
        """Counted as `train_ngram` counts contexts of length 1; `kwargs` go to the constructor."""
        return cls(vocab, _counted(_as_sequences(corpus), (1,)), **kwargs)


def _mirror(tokens: Sequence[int]) -> str:
    """`tokens` as one code point per token id: a `Context`'s own mirror, else built."""
    return tokens.text if isinstance(tokens, Context) else "".join(map(chr, tokens))


def _copy_start(generated: str, corpus: str, end: int) -> Optional[int]:
    """The index just past the first occurrence in `corpus[:end]` of the
    longest suffix of `generated` occurring there, or None if even the last
    token never occurs.  A suffix of a suffix that occurs occurs too, so that
    length is galloped to (1, 2, 4, ...) and bisected, one `str.find` a probe."""
    if end < 1 or (at := corpus.find(generated[-1], 0, end)) < 0:
        return None
    found, missing = 1, min(len(generated), end) + 1
    while missing - found > 1:
        m = min(2 * found, (found + missing) // 2)
        i = corpus.find(generated[-m:], 0, end)
        if i < 0:
            missing = m
        else:
            at, found = i, m
    return at + found


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
    text = _mirror(corpus)
    pos = _copy_start(_mirror(generated), text, len(text))
    return None if pos is None else list(corpus[pos:pos + n])


class _OneHotRows(dict):
    """Token id -> its read-only one-hot row over `size` tokens, built on first read."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, token: int) -> np.ndarray:
        row = self[token] = _dense(self.size, {token: 1.0})
        return row


class MagModel(LanguageModel):
    """Suffix-copy drafter: point mass on the token that followed the first
    occurrence of the context's longest suffix earlier in the context (prompt
    plus generation so far); the bigram row when the last token is new.

    The match corpus is `context[:-1]`, which skips the context's trivial
    match against itself and leaves every match a following token to copy.
    """

    def __init__(self, fallback: BigramTable, span: int = DEFAULT_SPAN,
                 cost_weight: float = 0.0, descriptor: str = "mag"):
        if span < 1:
            raise ConstructionError("span must be >= 1")
        self.fallback = fallback
        self.span = span
        self._one_hot = _OneHotRows(fallback.vocab.size)
        super().__init__(fallback.vocab, cost_weight, descriptor)

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        text = _mirror(context)
        pos = _copy_start(text, text, len(text) - 1)
        if pos is None:
            return self.fallback.distribution(context)
        return self._one_hot[context[pos]]

    def propose(self, tokens: Sequence[int], budget: int, rng: RandomSource,
                greedy: bool):
        """Emit one span of `span` tokens, counted as a single call.

        `budget` is not a cap: a span drafter always drafts its whole span,
        so a cascade stage it fills may take more tokens than its k-matrix
        entry (see `KMatrix`).

        Tokens and rows equal drawing each token from `distribution` in
        turn.  Only a fallback token needs a fresh suffix search: once the
        token at `pos` after the first longest match is copied, that match
        grown by one is the new first longest match, so the rest of the span
        is the context from `pos` on, repeated with period `len - pos`.  A
        fallback token is the `pick` of the bigram row; a sampled copy still
        consumes one uniform draw, which its one-hot row maps to it.
        """
        text = _mirror(tokens)
        out, dists = [], []
        while len(out) < self.span:
            pos = _copy_start(text, text, len(text) - 1)
            if pos is not None:
                left = self.span - len(out)
                head = text[pos:pos + left]  # one period, or the whole copy if shorter
                copied = list(map(ord, (head * (left // len(head) + 1))[:left]))
                out += copied
                dists += map(self._one_hot.__getitem__, copied)
                if not greedy:
                    for _ in copied:
                        rng.uniform()
                break
            d = self.fallback.distribution(out or tokens)  # reads the last token only
            tok = pick(d, rng, greedy)
            out.append(tok)
            dists.append(d)
            text += chr(tok)
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
    if not isinstance(obj, dict):
        raise ConstructionError(f"tables is a {type(obj).__name__}, not a JSON object")
    for key, row in obj.items():
        if not (isinstance(row, list)
                and all(isinstance(entry, list) and len(entry) == 2 for entry in row)):
            raise ConstructionError(f"table context {key!r} row is not a list of "
                                    f"[token id, probability] pairs")
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


#: the keys `model_to_dict` writes for every type; a `mag` file adds span and policy
_SAVED_KEYS = frozenset({"format_version", "type", "vocab", "tables", "cost_weight",
                         "descriptor", "order", "smoothing"})


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
    if not isinstance(obj, dict):
        raise ConstructionError(f"model file is a {type(obj).__name__}, not a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ConstructionError(f"unsupported format_version {obj.get('format_version')}")
    with reading("model file", ConstructionError):
        vocab, kind, saved = Vocab(obj["vocab"]), obj["type"], obj["tables"]
        cost_weight, descriptor = _saved_real(obj["cost_weight"], "cost_weight"), obj["descriptor"]
    keys = _SAVED_KEYS | ({"span", "policy"} if kind == "mag" else set())
    missing, unread = sorted(keys.difference(obj)), [key for key in obj if key not in keys]
    if missing:
        raise ConstructionError(f"model file lacks required key {missing[0]!r}")
    if unread:
        raise ConstructionError(f"a {kind!r} model file does not hold key {unread[0]!r}")
    if kind in ("bigram", "mag"):  # saved as the order-2 n-gram's table, unsmoothed
        for key, value in (("order", 2), ("smoothing", None)):
            if obj[key] != value:
                raise ConstructionError(f"a {kind!r} model file has {key} {value!r}, "
                                        f"not {obj[key]!r}")
    if kind == "ngram":
        order = integer(obj["order"], "order", 1)
        return NGramModel(order, vocab, _tables_from_json(saved, vocab.size, range(order)),
                          _saved_real(obj["smoothing"], "smoothing"), cost_weight, descriptor)
    # a bigram table, `mag`'s fallback included, counts contexts of length 1 only
    tables = _tables_from_json(saved, vocab.size, (1,))
    if kind == "bigram":
        return BigramTable(vocab, tables, cost_weight, descriptor)
    if kind == "mag":
        if obj["policy"] != MATCH_PROMPT_AND_GENERATION:
            raise ConstructionError(f"unknown match policy {obj['policy']!r}")
        return MagModel(BigramTable(vocab, tables), integer(obj["span"], "span", 1),
                        cost_weight, descriptor)
    raise ConstructionError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
