"""Statistical language models: interpolated n-grams, a bigram table, and the
longest-suffix-copy drafter, which copies from the context itself and falls
back to the bigram table.

All models here are deterministic, immutable after training, and serialize to
a single JSON document (format_version 1) whose probabilities round-trip
bit-faithfully.
"""
from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConstructionError,
    ContextConditionedModel,
    ContractViolation,
    RandomSource,
    TrainingError,
    Vocab,
    greedy_token,
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
    maximum-likelihood next-token probabilities; interpolation recursively
    mixes each order with the one below, bottoming out at uniform, so every
    conditional is normalized and fully supported.

    A context's row depends only on its longest tabled suffix, since shorter
    untabled suffixes skip their interpolation step.  So one read-only row is
    built and cached per tabled context, and every context whose longest
    tabled suffix it is shares that array.
    """

    def __init__(self, order: int, vocab: Vocab,
                 tables: Dict[Tuple[int, ...], Dict[int, float]],
                 interpolation: float = DEFAULT_INTERPOLATION,
                 cost_weight: Optional[float] = None,
                 descriptor: Optional[str] = None):
        if order < 1:
            raise ConstructionError("order must be >= 1")
        if not 0.0 < interpolation < 1.0:
            raise ConstructionError("interpolation weight must be in (0, 1)")
        self.order = order
        self.tables = tables
        self.interpolation = float(interpolation)
        self._cache: Dict[Tuple[int, ...], np.ndarray] = {}
        n_entries = sum(len(t) for t in tables.values())
        if cost_weight is None:
            cost_weight = float(max(n_entries, 1))
        if descriptor is None:
            descriptor = f"ngram{order}"
        super().__init__(vocab, cost_weight, descriptor)

    def _ml_vector(self, ctx: Tuple[int, ...]) -> Optional[np.ndarray]:
        row = self.tables.get(ctx)
        if row is None:
            return None
        v = np.zeros(self.vocab.size)
        for tok, p in row.items():
            v[tok] = p
        return v

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
                ml = self._ml_vector(key[len(key) - n:])
                if ml is not None:
                    row = w * ml + (1.0 - w) * row
            row.flags.writeable = False
            self._cache[key] = row
        self._cache[ctx] = row
        return row

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self._row(tuple(context[max(0, len(context) - self.order + 1):]))

    def evaluate(self, tokens: Sequence[int], start: int) -> list:
        """Rows as `ContextConditionedModel.evaluate` gives them, each keyed by
        at most `order - 1` trailing tokens, without copying the prefix."""
        self._check_start(tokens, start)
        return [self._row(tuple(tokens[max(0, p - self.order):p - 1]))
                for p in range(start, len(tokens) + 2)]

    def perplexity(self, corpus) -> float:
        seqs = _as_sequences(corpus)
        logp, n = 0.0, 0
        for seq in seqs:
            for tok, dist in zip(seq, self.evaluate(seq, 1)):
                logp += float(np.log(dist[tok]))
                n += 1
        return float(np.exp(-logp / n))


def train_ngram(corpus, order: int, vocab: Vocab,
                interpolation: float = DEFAULT_INTERPOLATION,
                cost_weight: Optional[float] = None,
                descriptor: Optional[str] = None) -> NGramModel:
    """Count n-grams of every order up to `order` and build the interpolated
    model.  Deterministic given corpus and parameters."""
    if order < 1:
        raise TrainingError("order must be >= 1")
    seqs = _as_sequences(corpus)
    counts: Dict[Tuple[int, ...], Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for seq in seqs:
        for i, tok in enumerate(seq):
            for n in range(0, order):
                if i - n < 0:
                    break
                counts[tuple(seq[i - n:i])][tok] += 1
    tables: Dict[Tuple[int, ...], Dict[int, float]] = {}
    for ctx, row in counts.items():
        total = sum(row.values())
        tables[ctx] = {tok: c / total for tok, c in sorted(row.items())}
    return NGramModel(order, vocab, tables, interpolation, cost_weight, descriptor)


class BigramTable:
    """Row-normalized token-to-token probability table with a uniform row for
    tokens never seen as a predecessor."""

    def __init__(self, vocab: Vocab, rows: Dict[int, Dict[int, float]]):
        self.vocab = vocab
        self.rows = rows
        self._uniform = np.full(vocab.size, 1.0 / vocab.size)
        self._cache: Dict[int, np.ndarray] = {}

    def row(self, token: int) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        stored = self.rows.get(token)
        if stored is None:
            v = self._uniform
        else:
            v = np.zeros(self.vocab.size)
            for tok, p in stored.items():
                v[tok] = p
        self._cache[token] = v
        return v

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        """Row of the context's last token; uniform for an empty context."""
        if not context:
            return self._uniform
        return self.row(context[-1])

    @classmethod
    def from_corpus(cls, corpus, vocab: Vocab) -> "BigramTable":
        seqs = _as_sequences(corpus)
        counts: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for seq in seqs:
            for a, b in zip(seq, seq[1:]):
                counts[a][b] += 1
        rows = {}
        for a, row in counts.items():
            total = sum(row.values())
            rows[a] = {b: c / total for b, c in sorted(row.items())}
        return cls(vocab, rows)


class BigramModel(ContextConditionedModel):
    """LanguageModel facade over a BigramTable (the bigram-only drafter)."""

    def __init__(self, table: BigramTable, cost_weight: float = 1.0,
                 descriptor: str = "bigram"):
        self.table = table
        super().__init__(table.vocab, cost_weight, descriptor)

    def distribution(self, context: Sequence[int]) -> np.ndarray:
        return self.table.distribution(context)


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
            row = np.zeros(self.vocab.size)
            row[token] = 1.0
            self._one_hot[token] = row
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
        return out, dists, 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _ctx_key(ctx: Tuple[int, ...]) -> str:
    return ",".join(str(t) for t in ctx)

def _parse_ctx(key: str) -> Tuple[int, ...]:
    return tuple(int(t) for t in key.split(",")) if key else ()


def _tables_to_json(tables) -> Dict[str, list]:
    # float() on load of repr-formatted decimals is an exact round trip
    return {
        _ctx_key(ctx): [[tok, repr(p)] for tok, p in sorted(row.items())]
        for ctx, row in sorted(tables.items())
    }

def _tables_from_json(obj) -> Dict[Tuple[int, ...], Dict[int, float]]:
    return {
        _parse_ctx(key): {int(tok): float(p) for tok, p in row}
        for key, row in obj.items()
    }


def model_to_dict(model) -> dict:
    if isinstance(model, NGramModel):
        return {
            "format_version": FORMAT_VERSION,
            "type": "ngram",
            "order": model.order,
            "vocab": list(model.vocab.pieces),
            "tables": _tables_to_json(model.tables),
            "smoothing": repr(model.interpolation),
            "cost_weight": repr(model.cost_weight),
            "descriptor": model.descriptor,
        }
    if isinstance(model, BigramModel):
        return {
            "format_version": FORMAT_VERSION,
            "type": "bigram",
            "order": 2,
            "vocab": list(model.vocab.pieces),
            "tables": _tables_to_json({(a,): row for a, row in model.table.rows.items()}),
            "smoothing": None,
            "cost_weight": repr(model.cost_weight),
            "descriptor": model.descriptor,
        }
    if isinstance(model, MagModel):
        return {
            "format_version": FORMAT_VERSION,
            "type": "mag",
            "order": 2,
            "vocab": list(model.vocab.pieces),
            "tables": _tables_to_json({(a,): row for a, row in model.fallback.rows.items()}),
            "smoothing": None,
            "span": model.span,
            "policy": MATCH_PROMPT_AND_GENERATION,
            "cost_weight": repr(model.cost_weight),
            "descriptor": model.descriptor,
        }
    raise ConstructionError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(obj: dict):
    if obj.get("format_version") != FORMAT_VERSION:
        raise ConstructionError(f"unsupported format_version {obj.get('format_version')}")
    vocab = Vocab(obj["vocab"])
    kind = obj["type"]
    cost_weight = float(obj["cost_weight"])
    descriptor = obj["descriptor"]
    if kind == "ngram":
        return NGramModel(int(obj["order"]), vocab, _tables_from_json(obj["tables"]),
                          float(obj["smoothing"]), cost_weight, descriptor)
    rows = {ctx[0]: row for ctx, row in _tables_from_json(obj["tables"]).items()}
    table = BigramTable(vocab, rows)
    if kind == "bigram":
        return BigramModel(table, cost_weight, descriptor)
    if kind == "mag":
        if obj["policy"] != MATCH_PROMPT_AND_GENERATION:
            raise ConstructionError(f"unknown match policy {obj['policy']!r}")
        return MagModel(table, int(obj["span"]), cost_weight, descriptor)
    raise ConstructionError(f"unknown model type {kind!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, separators=(",", ":"))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
