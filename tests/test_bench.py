"""Tokenizers, the positional-acceptance measurement, the bench harness, CLI."""
import csv
import json
from pathlib import Path

import pytest

from specdraft.analytics import ConstantModel
from specdraft.bench import (
    CSV_COLUMNS,
    CURVE_COLUMNS,
    ByteTokenizer,
    WordTokenizer,
    build_model,
    cli,
    ingest_corpus,
    measure_positional_acceptance,
    positional_curve,
    run_bench,
    write_curve_csv,
    write_report,
)
from specdraft.core import ConfigError, RandomSource
from specdraft.kernel import DecodeMode
from specdraft.statlm import BigramTable, MagModel

DATA = Path(__file__).resolve().parent.parent / "data"


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def test_byte_tokenizer_round_trip():
    tok = ByteTokenizer()
    assert len(tok.encode("ab")) == 2
    for s in ("hello world", "ünïcodé", ""):
        assert tok.decode(tok.encode(s)) == s


def test_word_tokenizer_unk():
    tok = WordTokenizer.from_lines(["the cat sat"])
    ids = tok.encode("the dog sat")
    assert ids[1] == tok.vocab.unk_id
    assert tok.decode(tok.encode("cat sat")) == "cat sat"


def test_ingest_corpus_wraps_lines():
    seqs, vocab, tok = ingest_corpus(str(DATA / "eval.txt"), "byte")
    assert all(s[0] == vocab.bos_id and s[-1] == vocab.eos_id for s in seqs)


def test_ingest_corpus_deterministic():
    a, _, _ = ingest_corpus(str(DATA / "eval.txt"), "byte")
    b, _, _ = ingest_corpus(str(DATA / "eval.txt"), "byte")
    assert a == b


def test_ingest_corpus_missing_file():
    with pytest.raises(OSError, match="no/such/file"):
        ingest_corpus("no/such/file.txt", "byte")


def test_ingest_corpus_unknown_tokenizer():
    with pytest.raises(ConfigError):
        ingest_corpus(str(DATA / "eval.txt"), "sentencepiece")


# ---------------------------------------------------------------------------
# positional acceptance
# ---------------------------------------------------------------------------

def test_curve_self_agreement():
    m = ConstantModel([0.2, 0.8])
    curve = positional_curve(measure_positional_acceptance(m, m, 5, [[0]], 50,
                                                           RandomSource(0)))
    assert all(curve[i]["accept_rate"] == 1.0 for i in range(5))


def test_curve_disjoint_pair():
    target = ConstantModel([1.0, 0.0])
    draft = ConstantModel([0.0, 1.0])
    curve = positional_curve(measure_positional_acceptance(
        target, draft, 5, [[0]], 50, RandomSource(0), DecodeMode.SAMPLING))
    assert all(curve[i]["accept_rate"] == 0.0 for i in range(5))


@pytest.mark.parametrize("target_size, draft_size", [(3, 2), (2, 3)])
def test_curve_rejects_mismatched_vocabularies(target_size, draft_size):
    target = ConstantModel([1.0] * target_size)
    draft = ConstantModel([1.0] * draft_size)
    with pytest.raises(ConfigError, match="vocabulary size"):
        measure_positional_acceptance(target, draft, 3, [[0]], 10, RandomSource(0))


def test_curve_csv_schema(tmp_path):
    m = ConstantModel([0.5, 0.5])
    trace = measure_positional_acceptance(m, m, 3, [[0]], 10, RandomSource(0))
    out = tmp_path / "curve.csv"
    write_curve_csv(trace, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == list(CURVE_COLUMNS)
    assert len(rows) == 4


def test_curve_rows_run_to_a_span_drafters_span(tmp_path):
    # a span drafter drafts its whole span whatever k is, and the curve has a
    # row for every position it proposed, as a bench report's does
    target = ConstantModel([0.2, 0.3, 0.5])
    draft = MagModel(BigramTable.from_corpus([[0, 1, 2]], target.vocab), span=5)
    trace = measure_positional_acceptance(target, draft, 2, [[0]], 10, RandomSource(0))
    out = tmp_path / "curve.csv"
    write_curve_csv(trace, out)
    rows = list(csv.reader(out.open()))
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert [r[2] for r in rows[1:]] == ["10"] * 5


# ---------------------------------------------------------------------------
# bench harness
# ---------------------------------------------------------------------------

def _tiny_config(**overrides):
    cfg = {
        "corpus": {"train": str(DATA / "train.txt"), "eval": str(DATA / "eval.txt"),
                   "tokenizer": "byte"},
        "models": {"n5": {"type": "ngram", "order": 5},
                   "n2": {"type": "ngram", "order": 2},
                   "mag": {"type": "mag", "span": 10}},
        "num_prompts": 4,
        "prompt_tokens": 32,
        "runs": [
            {"name": "auto", "method": "autoregressive", "target": "n5",
             "mode": "greedy", "max_new_tokens": 32, "seed": 1},
            {"name": "sd", "method": "sd", "target": "n5", "draft": "n2",
             "k": 6, "mode": "greedy", "max_new_tokens": 32, "seed": 1},
            {"name": "csd", "method": "csd", "target": "n5",
             "drafts": ["n2", "mag"], "k_matrix": [[2, 10], [0, 10]],
             "lenience": 3.0, "mode": "greedy", "max_new_tokens": 32, "seed": 1},
        ],
        "cost_models": {"ms": None},
    }
    cfg.update(overrides)
    return cfg


def test_run_bench_report_shape():
    report = run_bench(_tiny_config(), quiet=True)
    assert report["report_version"] == 1
    names = [r["name"] for r in report["runs"]]
    assert names == ["auto", "sd", "csd"]
    for r in report["runs"]:
        assert r["greedy_equivalent"] is True
        assert r["tokens_emitted"] > 0
    auto, sd, csd_run = report["runs"]
    assert auto["swi"]["ms"] == 1.0
    # drafting reduces target calls
    assert csd_run["calls_per_model"]["n5"] <= sd["calls_per_model"]["n5"]
    assert sd["calls_per_model"]["n5"] <= auto["calls_per_model"]["n5"]


def test_run_bench_swi_recomputable():
    report = run_bench(_tiny_config(), quiet=True)
    auto = report["runs"][0]
    # the autoregressive run pins down the target's per-call weight
    target_weight = auto["cost_units"] / auto["calls_per_model"]["n5"]
    for r in report["runs"]:
        want = r["tokens_emitted"] * target_weight / r["cost_units"]
        assert abs(r["swi"]["ms"] - want) < 1e-12


def test_run_bench_unknown_method():
    cfg = _tiny_config(runs=[{"name": "x", "method": "warp", "target": "n5",
                              "mode": "greedy", "max_new_tokens": 8, "seed": 1}])
    with pytest.raises(ConfigError):
        run_bench(cfg, quiet=True)


def test_write_report_csv_schema(tmp_path):
    report = run_bench(_tiny_config(), quiet=True)
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    write_report(report, str(jp), str(cp))
    rows = list(csv.reader(cp.open()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    loaded = json.loads(jp.read_text())
    assert loaded == report


def test_build_model_from_file(tmp_path, corpus, models):
    from specdraft.statlm import save_model
    train_seqs, _, vocab, _ = corpus
    path = tmp_path / "m.json"
    save_model(models["n2"], path)
    loaded = build_model("n2", {"file": str(path)}, train_seqs, vocab)
    assert loaded.descriptor == "n2"


def test_build_model_vocab_mismatch(tmp_path, corpus):
    from specdraft.core import Vocab
    from specdraft.statlm import BigramModel, BigramTable, save_model
    train_seqs, _, vocab, _ = corpus
    other = BigramModel(BigramTable(Vocab(("a", "b")), {}))
    path = tmp_path / "m.json"
    save_model(other, path)
    with pytest.raises(ConfigError):
        build_model("m", {"file": str(path)}, train_seqs, vocab)


def test_bench_rejects_unknown_mag_policy(tmp_path, corpus, capsys):
    train_seqs, _, vocab, _ = corpus
    spec = {"type": "mag", "policy": "prompt-only"}
    with pytest.raises(ConfigError, match="prompt-only"):
        build_model("mag", spec, train_seqs, vocab)
    # a config error, so the CLI exits 2
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(_tiny_config(models={"mag": spec}, runs=[])))
    assert cli(["bench", "--config", str(cfg_path)]) == 2
    assert "prompt-only" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_train_then_run(tmp_path, capsys):
    model_path = tmp_path / "m3.json"
    rc = cli(["train", "--corpus", str(DATA / "train.txt"), "--order", "3",
              "--out", str(model_path)])
    assert rc == 0
    assert model_path.exists()
    capsys.readouterr()  # drop the training banner
    rc = cli(["run", "--target", str(model_path), "--prompt", "the scheduler",
              "--seed", "7", "--max-new-tokens", "24"])
    assert rc == 0
    first = capsys.readouterr().out
    cli(["run", "--target", str(model_path), "--prompt", "the scheduler",
         "--seed", "7", "--max-new-tokens", "24"])
    assert capsys.readouterr().out == first  # fixed seed, fixed text


def test_cli_unknown_subcommand():
    assert cli(["defragment"]) == 2


@pytest.mark.parametrize("run", [
    {"method": "autoregressive", "target": "nope"},
    {"method": "sd", "target": "n2", "draft": "nope", "k": 2},
    {"method": "csd", "target": "n2", "drafts": ["n2", "nope"], "k_matrix": [[1, 1], [0, 1]]},
])
def test_cli_bench_rejects_unknown_model(tmp_path, capsys, run):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[dict(run, name="bad", mode="greedy", max_new_tokens=4, seed=1)])
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "'bad'" in err and "'nope'" in err


_FULL_RUNS = {
    "autoregressive": {"name": "bad", "method": "autoregressive", "target": "n2",
                       "max_new_tokens": 4, "seed": 1},
    "sd": {"name": "bad", "method": "sd", "target": "n2", "draft": "n2", "k": 2,
           "max_new_tokens": 4, "seed": 1},
    "csd": {"name": "bad", "method": "csd", "target": "n2", "drafts": ["n2"],
            "k_matrix": [[2]], "max_new_tokens": 4, "seed": 1},
}


@pytest.mark.parametrize("method,key", [
    ("autoregressive", "name"), ("autoregressive", "method"), ("autoregressive", "target"),
    ("autoregressive", "max_new_tokens"), ("autoregressive", "seed"),
    ("sd", "draft"), ("sd", "k"), ("csd", "drafts"), ("csd", "k_matrix"),
])
def test_cli_bench_rejects_run_without_required_key(tmp_path, capsys, method, key):
    run = dict(_FULL_RUNS[method])
    del run[key]
    # the bad run comes second, so the check must come before any run decodes
    runs = [_FULL_RUNS["autoregressive"] | {"name": "good"}, run]
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}}, runs=runs)
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli(["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"'{key}'" in err and (key == "name" or "'bad'" in err)
    assert not (tmp_path / "r.json").exists()


def test_cli_run_drafts_without_kmatrix(tmp_path):
    model_path = tmp_path / "m.json"
    cli(["train", "--corpus", str(DATA / "eval.txt"), "--order", "2",
         "--out", str(model_path)])
    rc = cli(["run", "--target", str(model_path), "--drafts", str(model_path),
              "--prompt", "x", "--seed", "1"])
    assert rc == 2


def test_cli_bench_and_analyze(tmp_path, capsys):
    cfg = _tiny_config(report=str(tmp_path / "report.json"))
    cfg["runs"] = cfg["runs"][:2]
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli(["bench", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
    capsys.readouterr()

    grid = {"seed": 0, "trials": 10000,
            "grid": [{"name": "sd", "method": "sd", "alpha": 0.6, "c": 0.05, "k": 3}]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    out_path = tmp_path / "grid.csv"
    assert cli(["analyze", "--config", str(grid_path), "--out", str(out_path)]) == 0
    rows = list(csv.reader(out_path.open()))
    assert rows[0][0] == "name" and len(rows) == 2


def test_cli_accept_curve(tmp_path):
    target_path = tmp_path / "t.json"
    draft_path = tmp_path / "d.json"
    cli(["train", "--corpus", str(DATA / "eval.txt"), "--order", "4",
         "--out", str(target_path)])
    cli(["train", "--corpus", str(DATA / "eval.txt"), "--order", "2",
         "--out", str(draft_path)])
    out = tmp_path / "curve.csv"
    rc = cli(["accept-curve", "--target", str(target_path), "--draft", str(draft_path),
              "--k", "8", "--steps", "50", "--corpus", str(DATA / "eval.txt"),
              "--num-prompts", "4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == list(CURVE_COLUMNS)
    assert len(rows) == 9


def test_cli_accept_curve_rejects_mismatched_vocabularies(tmp_path, capsys):
    target_path = tmp_path / "t.json"
    draft_path = tmp_path / "d.json"
    cli(["train", "--corpus", str(DATA / "eval.txt"), "--order", "2",
         "--out", str(target_path)])
    cli(["train", "--corpus", str(DATA / "eval.txt"), "--order", "2",
         "--tokenizer", "word", "--out", str(draft_path)])
    rc = cli(["accept-curve", "--target", str(target_path), "--draft", str(draft_path),
              "--k", "4", "--steps", "10", "--corpus", str(DATA / "eval.txt"),
              "--num-prompts", "2", "--seed", "1", "--out", str(tmp_path / "curve.csv")])
    assert rc == 2
    assert "vocabulary size" in capsys.readouterr().err
