"""Tokenizers, the positional-acceptance measurement, the bench harness, CLI."""
import ast
import csv
import hashlib
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
CONFIGS = DATA.parent / "configs"


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
    rows = list(csv.reader(out.read_text().splitlines()))
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
    rows = list(csv.reader(out.read_text().splitlines()))
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
    report = run_bench(_tiny_config())
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
    report = run_bench(_tiny_config())
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
        run_bench(cfg)


def test_write_report_csv_schema(tmp_path):
    report = run_bench(_tiny_config())
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    write_report(report, str(jp), str(cp))
    rows = list(csv.reader(cp.read_text().splitlines()))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 4
    loaded = json.loads(jp.read_text())
    assert loaded == report


#: sha256 of report.json and of its CSV for each shipped bench config,
#: recorded while n-gram reviews still built every row before reviewing
SHIPPED_REPORT_SHA256 = {
    "bench_example": ("80ef6d2af8c4893fa57bece38d737c075c26a0f5cbba5a4cdb055ed63da0068e",
                      "ec92113cb1f86600ab65347cfc5eba4b3dc3c2b266bbe1310d4ca2d3507b165a"),
    "decoder_only": ("4782365e2d9a5a2d1a01020f32b43758c77708c0ca31f8b2c42b1900654fc659",
                     "3ae8220d099583a4d02ecff48dbecca8e965a7772266361cf4edc766867a18d6"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPORT_SHA256))
def test_shipped_bench_reports_keep_their_bytes(tmp_path, name):
    # the reports hold each run's calls, swi and per-level proposed and
    # accepted counts, so a change in what any review reads shows here
    config = json.loads((CONFIGS / f"{name}.json").read_text())
    for key in ("train", "eval"):
        config["corpus"][key] = str(DATA.parent / config["corpus"][key])
    jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
    write_report(run_bench(config), str(jp), str(cp))
    assert (hashlib.sha256(jp.read_bytes()).hexdigest(),
            hashlib.sha256(cp.read_bytes()).hexdigest()) == SHIPPED_REPORT_SHA256[name]


def test_build_model_from_file(tmp_path, corpus, models):
    from specdraft.statlm import save_model
    train_seqs, _, vocab, _ = corpus
    path = tmp_path / "m.json"
    save_model(models["n2"], path)
    loaded = build_model("n2", {"file": str(path)}, train_seqs, vocab)
    assert loaded.descriptor == "n2"


def test_build_model_vocab_mismatch(tmp_path, corpus):
    from specdraft.core import Vocab
    from specdraft.statlm import BigramTable, save_model
    train_seqs, _, vocab, _ = corpus
    other = BigramTable(Vocab(("a", "b")), {})
    path = tmp_path / "m.json"
    save_model(other, path)
    with pytest.raises(ConfigError):
        build_model("m", {"file": str(path)}, train_seqs, vocab)


@pytest.mark.parametrize("kind", ["ngram", "bigram", "mag"])
def test_build_model_rejects_a_file_with_a_token_id_outside_the_vocabulary(
        tmp_path, corpus, kind):
    from specdraft.statlm import model_to_dict
    train_seqs, _, vocab, _ = corpus
    spec = {"ngram": {"type": "ngram", "order": 2}}.get(kind, {"type": kind})
    obj = model_to_dict(build_model("m", spec, train_seqs[:20], vocab))
    ctx = sorted(obj["tables"])[-1]
    obj["tables"][ctx][0][0] = -1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=f"model 'm'.*context {ctx!r} holds token id -1"):
        build_model("m", {"file": str(path)}, train_seqs, vocab)


@pytest.mark.parametrize("kind,edit,named", [
    ("ngram", lambda obj: obj.update(order=2.5), "order 2.5"),
    ("bigram", lambda obj: obj["tables"][sorted(obj["tables"])[-1]][0].__setitem__(0, 5.7),
     "token id 5.7"),
    ("mag", lambda obj: obj.update(cost_weight="nan"), "cost_weight nan"),
], ids=["order-fractional", "row-token-fractional", "cost-weight-nan"])
def test_build_model_rejects_a_file_value_the_model_does_not_take(tmp_path, corpus, kind,
                                                                  edit, named):
    # int() loaded order 2.5 as 2 and a token 5.7 as 5, and a NaN cost weight
    # loaded and broke swi once a run had decoded
    from specdraft.statlm import model_to_dict
    train_seqs, _, vocab, _ = corpus
    obj = model_to_dict(build_model("m", {"type": kind}, train_seqs[:20], vocab))
    edit(obj)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match=f"model 'm'.*{named}"):
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


@pytest.mark.parametrize("name,flags,sha256", [
    ("ngram7", ["--order", "7"],
     "3df81d4c9f93c5fa0bf75336182e4204f8c571fb84ca07a4f54a3a435e47f0a1"),
    ("ngram3", ["--order", "3"],
     "c1026b9b278e0db78b4ad9b60782cb634e6e81e5cf027d4cb5ecdc2c7c20eaaa"),
    ("ngram2", ["--order", "2"],
     "91f3ca94f2cd955b18c28cefe780c8e5c4238b34df28f8b32406d01b75a9f701"),
    ("bigram", ["--type", "bigram"],
     "ceceae56f17a0d3850c61f9750907c09f90c9de222c23e5c7829eb895c74c78f"),
    ("mag", ["--type", "mag"],
     "6a582d5658ab0d271976e1e3e0caaee336b14478e53ac70ed5745f443d942451"),
])
def test_cli_train_saves_the_same_bytes(tmp_path, name, flags, sha256):
    # a change in how tables are counted, normalized or saved shows here
    path = tmp_path / f"{name}.json"
    assert cli(["train", "--corpus", str(DATA / "train.txt"), "--out", str(path), *flags]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


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
    rows = list(csv.reader(out_path.read_text().splitlines()))
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
    rows = list(csv.reader(out.read_text().splitlines()))
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


def _write_config(tmp_path, cfg) -> list:
    """Write `cfg` as a bench config and return the CLI arguments to run it."""
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(cfg))
    return ["bench", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]


@pytest.mark.parametrize("bad", [{"mode": "beam"}, {"k_matrix": [[2, 1]]},
                                 {"k_matrix": [[0]]}, {"k_matrix": [[2, 1], [0, 1]]}])
def test_cli_bench_checks_every_run_before_any_decodes(tmp_path, capsys, bad):
    runs = [_FULL_RUNS["autoregressive"] | {"name": "good"}, _FULL_RUNS["csd"] | bad]
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}}, runs=runs)
    rc = cli(_write_config(tmp_path, cfg))
    err = capsys.readouterr().err
    assert (rc, err.startswith("config error:")) == (2, True), err
    assert "[good]" not in err  # the first run never decoded
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key,value", [("max_new_tokens", 0), ("max_new_tokens", -3)])
def test_cli_bench_rejects_run_that_cannot_emit(tmp_path, capsys, key, value):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["sd"] | {key: value}])
    assert cli(_write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "'bad'" in err and key in err and "price" not in err


def test_cli_bench_rejects_zero_prompts(tmp_path, capsys):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["sd"]], num_prompts=0)
    assert cli(_write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "no prompts" in err and "price" not in err


def test_cli_bench_rejects_nan_lenience(tmp_path, capsys):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["sd"] | {"lenience": float("nan")}])
    assert cli(_write_config(tmp_path, cfg)) == 2
    assert "lenience" in capsys.readouterr().err


def test_cli_bench_rejects_config_that_is_not_json(tmp_path, capsys):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text("{corpus: 1}")
    assert cli(["bench", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg_path) in err


@pytest.mark.parametrize("key", ["corpus", "models", "runs"])
def test_cli_bench_rejects_config_without_required_key(tmp_path, capsys, key):
    cfg = _tiny_config()
    del cfg[key]
    assert cli(_write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"'{key}'" in err


def test_cli_bench_rejects_distinct_models_sharing_a_descriptor(tmp_path, capsys, models):
    from specdraft.statlm import save_model
    path = tmp_path / "n2.json"
    save_model(models["n2"], path)
    # two loads of one file are two models with one descriptor: their calls
    # would be counted and priced as one model's
    cfg = _tiny_config(models={"a": {"file": str(path)}, "b": {"file": str(path)}},
                       runs=[_FULL_RUNS["sd"] | {"target": "a", "draft": "b"}])
    assert cli(_write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "'bad'" in err and "descriptor" in err
    # one model twice is self-agreement, which stays legal
    cfg["runs"] = [_FULL_RUNS["sd"] | {"target": "a", "draft": "a"}]
    assert cli(_write_config(tmp_path, cfg)) == 0


def _train(tmp_path, name, *flags, corpus="eval.txt"):
    path = tmp_path / name
    assert cli(["train", "--corpus", str(DATA / corpus), "--out", str(path), *flags]) == 0
    return str(path)


def test_cli_readme_quick_start_prices_target_and_draft_apart(tmp_path, capsys):
    # trained without --name, each model is named after its file
    target = _train(tmp_path, "n3.json", "--order", "3")
    draft = _train(tmp_path, "n2.json", "--order", "2")
    assert "trained n3 " in capsys.readouterr().out
    assert cli(["run", "--target", target, "--draft", draft, "--k", "4",
                "--prompt", "the scheduler", "--seed", "1", "--max-new-tokens", "24"]) == 0
    calls = capsys.readouterr().err.split("calls=")[1].split(" cost=")[0]
    assert set(ast.literal_eval(calls)) == {"n3", "n2"}


def test_cli_run_rejects_distinct_models_sharing_a_descriptor(tmp_path, capsys):
    target = _train(tmp_path, "a.json", "--order", "3", "--name", "ngram")
    draft = _train(tmp_path, "b.json", "--order", "2", "--name", "ngram")
    capsys.readouterr()
    assert cli(["run", "--target", target, "--draft", draft, "--prompt", "x",
                "--seed", "1"]) == 2
    assert "descriptor" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--drafts", "{m}", "--k-matrix", "[[2"],
                                   ["--max-new-tokens", "0"]])
def test_cli_run_usage_and_config_errors_exit_2(tmp_path, flags):
    model = _train(tmp_path, "m.json", "--order", "2")
    assert cli(["run", "--target", model, "--prompt", "x", "--seed", "1",
                *[f.format(m=model) for f in flags]]) == 2


def test_cli_accept_curve_rejects_word_tokenizer_over_byte_models(tmp_path, capsys):
    target = _train(tmp_path, "t.json", "--order", "2")
    capsys.readouterr()
    rc = cli(["accept-curve", "--target", target, "--draft", target, "--k", "4",
              "--steps", "10", "--corpus", str(DATA / "eval.txt"), "--tokenizer", "word",
              "--num-prompts", "2", "--seed", "1", "--out", str(tmp_path / "curve.csv")])
    assert rc == 2
    assert "byte-level" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def test_cli_accept_curve_tokenizes_in_the_targets_vocabulary(tmp_path):
    # word models trained on one corpus, measured over another: every prompt
    # token is an id of the target's vocabulary
    target = _train(tmp_path, "t.json", "--order", "3", "--tokenizer", "word",
                    corpus="train.txt")
    draft = _train(tmp_path, "d.json", "--order", "2", "--tokenizer", "word",
                   corpus="train.txt")
    out = tmp_path / "curve.csv"
    assert cli(["accept-curve", "--target", target, "--draft", draft, "--k", "4",
                "--steps", "20", "--corpus", str(DATA / "eval.txt"), "--tokenizer", "word",
                "--num-prompts", "3", "--seed", "1", "--out", str(out)]) == 0
    assert len(list(csv.reader(out.read_text().splitlines()))) == 5


# every input that does not fit is a config error (exit 2) that names its
# model, run, key or file, found before any run decodes.  An int path would
# be opened as a file descriptor; 10**6 is one that is not open.
def _bad_model(spec):
    return lambda cfg: cfg["models"].__setitem__("bad", spec)


def _bad_run(**values):
    return lambda cfg: cfg["runs"][1].update(values)


def _all(*changes):
    return lambda cfg: [change(cfg) for change in changes]


def _prices(**prices):
    return lambda cfg: cfg.update(cost_models={"ms": prices})


@pytest.mark.parametrize("change,named", [
    (_bad_model({"type": "mag", "span": 0}), "model 'bad'"),
    (_bad_model({"type": "ngram", "order": 0}), "model 'bad'"),
    (_bad_model({"type": "ngram", "order": "x"}), "model 'bad'"),
    (_bad_model({"type": "ngram", "interpolation": 2}), "model 'bad'"),
    (_bad_model({"type": "bigram", "cost_weight": -1}), "model 'bad'"),
    (_bad_model(["ngram", 2]), "model 'bad'"),
    (_bad_model({"file": 10**6}), "model 'bad'"),
    (_bad_run(max_new_tokens="many"), "run 'bad'"),
    (_bad_run(k_matrix=3), "run 'bad'"),
    (_bad_run(seed="x"), "run 'bad'"),
    (_bad_run(lenience="x"), "run 'bad'"),
    (lambda cfg: cfg["corpus"].pop("train"), "'train'"),
    (lambda cfg: cfg["corpus"].pop("eval"), "'eval'"),
    (lambda cfg: cfg["corpus"].update(train=10**6), "bench config"),
    (lambda cfg: cfg.update(num_prompts="x"), "bench config"),
    (lambda cfg: cfg.update(runs={"bad": cfg["runs"][1]}), "run 0"),
    (lambda cfg: cfg["runs"].__setitem__(1, 3), "run 1"),
    (lambda cfg: cfg.update(num_prompts=-3), "num_prompts -3"),
    (_bad_run(k_matrix=[[2.7]]), "run 'bad'"),
    # a target priced 0 gave a division by zero once every run had decoded,
    # and a negative price a meaningless swi
    (_all(_bad_model({"type": "mag"}), _bad_run(method="autoregressive", target="bad")),
     "cost model 'ms' prices model 'bad'"),
    (lambda cfg: cfg["models"]["n2"].update(cost_weight=0), "cost model 'ms' prices model 'n2'"),
    (_prices(n2=0), "cost model 'ms' prices model 'n2'"),
    (_all(_bad_model({"type": "ngram", "order": 1}), _bad_run(drafts=["bad"]),
          _prices(n2=1, bad=-1)), "cost model 'ms' prices model 'bad'"),
    (_prices(n2=1, unused=float("inf")), "cost model 'ms' prices model 'unused'"),
    (_prices(n2="1"), "cost model 'ms' prices model 'n2'"),
    # read outside the reading block, these exited 1 with a bare Python error
    (lambda cfg: cfg.update(cost_models={"ms": 3}), "cost model 'ms'"),
    (lambda cfg: cfg.update(cost_models=[1]), "cost_models"),
    # a prompt length below 1 silently ran 1-token prompts
    (lambda cfg: cfg.update(prompt_tokens=-5), "prompt_tokens -5"),
    (lambda cfg: cfg.update(prompt_tokens=0), "prompt_tokens 0"),
    # int() truncated these, and infinity raised OverflowError (exit 1)
    (_bad_run(max_new_tokens=2.7), "run 'bad'"),
    (_bad_model({"type": "ngram", "order": 2.5}), "model 'bad'"),
    (_bad_model({"type": "ngram", "order": True}), "model 'bad'"),
    (_bad_model({"type": "mag", "span": True}), "model 'bad'"),
    (_bad_run(seed=1.5), "run 'bad'"),
    (_bad_run(seed=-1), "run 'bad'"),
    (lambda cfg: cfg.update(num_prompts=1.5), "num_prompts 1.5"),
    (lambda cfg: cfg.update(prompt_tokens=8.5), "prompt_tokens 8.5"),
    (_bad_run(max_new_tokens=float("inf")), "run 'bad'"),
    (_bad_model({"type": "ngram", "order": float("inf")}), "model 'bad'"),
    (_bad_run(k_matrix=[[float("inf")]]), "run 'bad'"),
    # a NaN draft weight passed the price check, which reads only targets'
    # weights, and failed in swi once the run had decoded
    (_all(_bad_model({"type": "ngram", "order": 1, "cost_weight": float("nan")}),
          _bad_run(drafts=["bad"])), "model 'bad'"),
    (_bad_model({"type": "mag", "cost_weight": float("inf")}), "model 'bad'"),
    # a sampled run at lenience 3 is refused whatever this retired switch
    # says: the string "false" was read as true and turned the guard off
    (_bad_run(mode="sampling", lenience=3, allow_inexact_sampling="false"), "run 'bad'"),
    (_bad_run(mode="sampling", lenience=3, allow_inexact_sampling=True), "run 'bad'"),
    # float() read these strings, and a bool as 0 or 1
    (_bad_run(lenience="3"), "run 'bad': lenience '3' is not a number"),
    (_bad_run(lenience="inf"), "run 'bad': lenience 'inf' is not a number"),
    (_bad_run(lenience=True), "run 'bad': lenience True is not a number"),
    (_bad_model({"type": "ngram", "interpolation": "0.5"}),
     "model 'bad': interpolation '0.5' is not a number"),
    (_bad_model({"type": "bigram", "cost_weight": True}),
     "model 'bad': cost_weight True is not a number"),
    (_prices(n2=True), "cost model 'ms' prices model 'n2' at True: price True is not a number"),
], ids=["span-0", "order-0", "order-x", "interpolation-2", "cost-weight-negative",
        "model-spec-list", "model-file-int", "max-new-tokens-many", "k-matrix-int", "seed-x", "lenience-x",
        "corpus-without-train", "corpus-without-eval", "corpus-path-int", "num-prompts-x", "runs-object",
        "run-int", "num-prompts-negative", "k-matrix-fractional", "mag-target-default-price",
        "target-cost-weight-0", "target-price-0", "draft-price-negative", "price-infinite",
        "price-string", "cost-preset-int", "cost-models-list", "prompt-tokens-negative",
        "prompt-tokens-0", "max-new-tokens-fractional", "order-fractional", "order-bool",
        "span-bool", "seed-fractional", "seed-negative", "num-prompts-fractional",
        "prompt-tokens-fractional", "max-new-tokens-infinite", "order-infinite",
        "k-matrix-infinite", "draft-cost-weight-nan", "cost-weight-infinite",
        "inexact-sampling-false-string", "inexact-sampling-true", "lenience-string",
        "lenience-inf-string", "lenience-bool", "interpolation-string", "cost-weight-bool",
        "price-bool"])
def test_cli_bench_input_that_does_not_fit_is_a_config_error(tmp_path, capsys, change, named):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["autoregressive"] | {"name": "good"},
                             dict(_FULL_RUNS["csd"])])
    change(cfg)
    rc = cli(_write_config(tmp_path, cfg))
    err = capsys.readouterr().err
    assert (rc, err.startswith("config error:"), named in err) == (2, True, True), err
    assert "[good]" not in err  # nothing decoded
    assert not (tmp_path / "r.json").exists()


def test_cli_bench_checks_the_report_path_before_any_run_decodes(tmp_path, capsys):
    # read once every run had decoded, a number exited 1 with a bare AttributeError
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["autoregressive"] | {"name": "good"}], report=5)
    assert cli(_write_config(tmp_path, cfg)[:-2]) == 2  # without --out
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "report 5" in err and "[good]" not in err


def test_cli_bench_writes_the_csv_beside_a_report_without_a_suffix(tmp_path):
    # the CSV path was cut at the last dot of the whole path: out.v2/report
    # wrote out.csv beside the directory
    (tmp_path / "out.v2").mkdir()
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2}},
                       runs=[_FULL_RUNS["autoregressive"]],
                       report=str(tmp_path / "out.v2" / "report"))
    assert cli(_write_config(tmp_path, cfg)[:-2]) == 0
    assert (tmp_path / "out.v2" / "report").exists()
    assert (tmp_path / "out.v2" / "report.csv").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("flags", [["--order", "0"], ["--type", "mag", "--span", "0"],
                                   ["--interpolation", "1.5"], ["--cost-weight", "-1"],
                                   ["--interpolation", "0"], ["--interpolation", "nan"],
                                   ["--interpolation", "1.0000001"]],
                         ids=["order-0", "span-0", "interpolation", "cost-weight",
                              "interpolation-0", "interpolation-nan", "interpolation-above-1"])
def test_cli_train_flags_that_do_not_fit_are_config_errors(tmp_path, capsys, flags):
    out = tmp_path / "m.json"
    assert cli(["train", "--corpus", str(DATA / "eval.txt"), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "model 'm'" in err
    assert not out.exists()


def test_cli_run_rejects_a_model_file_of_another_format(tmp_path, capsys):
    model = Path(_train(tmp_path, "m.json", "--order", "2"))
    model.write_text(model.read_text().replace('"format_version":1', '"format_version":2'))
    capsys.readouterr()
    assert cli(["run", "--target", str(model), "--prompt", "x", "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(model) in err and "format_version" in err


@pytest.mark.parametrize("text,named", [
    ("{grid: 1}", ""),
    ('{"seed": 0}', "'grid'"),
    ('{"grid": [{"method": "sd", "alpha": 0.5, "c": 0.1, "k": 2},'
     ' {"method": "sd", "alpha": 0.5, "k": 2}]}', "row 1 lacks required key 'c'"),
    ('{"trials": "x", "grid": []}', "'x'"),
    ('{"grid": [{"method": "sd", "alpha": "x", "c": 0.1, "k": 2}]}', "row 0"),
    ('{"grid": [{"method": "sd", "alpha": 0.5, "c": 0.1, "k": 2},'
     ' {"method": "sd", "alpha": 0.8, "c": -0.25, "k": 4}]}', "row 1"),
    ('{"grid": [{"method": "sd", "alpha": 1.5, "c": 0.1, "k": 2}]}', "row 0"),
    ('{"grid": [{"method": "horizontal", "alphas": [0.9], "cs": [0.05], "ks": [-1]}]}',
     "row 0"),
    ('{"grid": [{"method": "horizontal", "alphas": [0.9, 0.5], "cs": [0.05, 0.01],'
     ' "ks": [1]}]}', "row 0"),
    # int() truncated these, and infinity raised OverflowError (exit 1)
    ('{"trials": 2.5, "grid": []}', "trials 2.5"),
    ('{"trials": Infinity, "grid": []}', "trials inf"),
    ('{"seed": true, "grid": []}', "seed True"),
    ('{"seed": 0.5, "grid": []}', "seed 0.5"),
    ('{"grid": [{"method": "horizontal", "alphas": [0.9], "cs": [0.05], "ks": [true]}]}',
     "row 0"),
], ids=["not-json", "no-grid", "row-without-c", "trials-x", "alpha-x", "sd-c-negative",
        "sd-alpha-above-one", "horizontal-ks-negative", "horizontal-ks-short",
        "trials-fractional", "trials-infinite", "seed-bool", "seed-fractional", "ks-bool"])
def test_cli_analyze_grid_that_does_not_fit_is_a_config_error(tmp_path, capsys, text, named):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    assert cli(["analyze", "--config", str(grid), "--out", str(tmp_path / "g.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: grid {grid}") and named in err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("config", ["analyze_grid.json", "table1_template.json"])
def test_cli_analyze_runs_each_shipped_grid(tmp_path, config):
    out = tmp_path / "grid.csv"
    assert cli(["analyze", "--config", str(CONFIGS / config), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(json.loads((CONFIGS / config).read_text())["grid"])
    for row in rows:
        gap = abs(float(row["ewif_closed"]) - float(row["ewif_simulated"]))
        assert gap <= 3 * float(row["ci95"]), row


def test_cli_accept_curve_rejects_a_prompt_count_below_one(tmp_path, capsys):
    # a negative count sliced the corpus from its end
    model = _train(tmp_path, "m.json", "--order", "2")
    capsys.readouterr()
    rc = cli(["accept-curve", "--target", model, "--draft", model, "--k", "4",
              "--steps", "10", "--corpus", str(DATA / "eval.txt"), "--num-prompts", "-3",
              "--seed", "1", "--out", str(tmp_path / "curve.csv")])
    assert rc == 2
    assert "--num-prompts -3" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("value", ["-5", "0"])
def test_cli_accept_curve_rejects_a_prompt_length_below_one(tmp_path, capsys, value):
    # a length below 1 silently ran 1-token prompts
    model = _train(tmp_path, "m.json", "--order", "2")
    capsys.readouterr()
    rc = cli(["accept-curve", "--target", model, "--draft", model, "--k", "4",
              "--steps", "10", "--corpus", str(DATA / "eval.txt"), "--prompt-tokens", value,
              "--seed", "1", "--out", str(tmp_path / "curve.csv")])
    assert rc == 2
    assert f"--prompt-tokens {value}" in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()


def test_cli_bench_checks_price_maps_before_any_run_decodes(tmp_path, capsys):
    cfg = _tiny_config(models={"n2": {"type": "ngram", "order": 2},
                               "n1": {"type": "ngram", "order": 1}},
                       runs=[_FULL_RUNS["autoregressive"] | {"name": "good"},
                             _FULL_RUNS["sd"] | {"draft": "n1"}],
                       cost_models={"ms": {"n2": 1.0}})
    assert cli(_write_config(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert "'ms'" in err and "'n1'" in err and "[good]" not in err
