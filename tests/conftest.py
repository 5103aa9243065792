"""Shared fixtures: the shipped corpus and a session-wide set of trained models.

Training the order-7 model takes a couple of seconds, so everything heavy is
session-scoped and reused by both the unit tests and the acceptance suite.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

sys.path.insert(0, str(ROOT / "src"))

from specdraft.bench import ingest_corpus  # noqa: E402
from specdraft.statlm import BigramTable, MagModel, train_ngram  # noqa: E402

#: one line per acceptance criterion, echoed after the run (pytest captures
#: stdout at the fd level, so ordinary prints from passing tests are lost)
CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion_log():
    return CRITERION_LINES


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def corpus():
    """(train_seqs, eval_seqs, vocab, tokenizer) for the shipped byte corpus."""
    train_seqs, vocab, tok = ingest_corpus(str(DATA / "train.txt"), "byte")
    eval_seqs, _, _ = ingest_corpus(str(DATA / "eval.txt"), "byte", existing=tok)
    return train_seqs, eval_seqs, vocab, tok


@pytest.fixture(scope="session")
def models(corpus):
    """The model family used by the shipped benchmark config."""
    train_seqs, _, vocab, _ = corpus
    table = BigramTable.from_corpus(train_seqs, vocab)
    return {
        "n7": train_ngram(train_seqs, 7, vocab, descriptor="n7"),
        "n3": train_ngram(train_seqs, 3, vocab, descriptor="n3"),
        "n2": train_ngram(train_seqs, 2, vocab, descriptor="n2"),
        "bigram": table,
        "mag": MagModel(table, span=10, descriptor="mag"),
    }


@pytest.fixture(scope="session")
def eval_prompts(corpus):
    """100 prompts of 48 tokens each, cut from the eval split."""
    _, eval_seqs, _, _ = corpus
    prompts = [seq[:48] for seq in eval_seqs if len(seq) > 48]
    assert len(prompts) >= 100, "eval corpus too small for the prompt set"
    return prompts[:100]
