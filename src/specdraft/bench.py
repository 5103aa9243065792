"""Experiment harness and CLI: corpus ingestion, model training, side-by-side
generation runs, standardized-speedup reporting, and positional acceptance
measurement.  `positional_curve` is the one per-position acceptance tally:
it reads a run's review trace, for the bench report and the accept-curve
CSV alike.

Report files are fully deterministic for a fixed config (wall-clock timings
are printed to the console only, never written to the report).
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .analytics import ewif_comparison_table, swi
from .cascade import (
    CascadeConfig,
    GenerationTrace,
    KMatrix,
    autoregressive_generate,
    csd_step,
    generate,
)
from .core import (ConfigError, ContractViolation, LanguageModel, RandomSource, Vocab,
                   integer, reading, real)
from .kernel import DecodeMode
from .statlm import (
    MATCH_PROMPT_AND_GENERATION,
    BigramTable,
    MagModel,
    load_model,
    save_model,
    train_ngram,
)

REPORT_VERSION = 1

#: fixed column order of the bench CSV
CSV_COLUMNS = ("run", "method", "tokens", "target_calls", "total_calls",
               "cost_units", "swi_ms", "greedy_ok")

#: fixed column order of the accept-curve CSV
CURVE_COLUMNS = ("position", "accept_rate", "n", "cond_accept_rate", "cond_n")


class BenchError(RuntimeError):
    """A run violated a hard guarantee (e.g. the greedy-equivalence gate)."""


# ---------------------------------------------------------------------------
# tokenization and corpus ingestion
# ---------------------------------------------------------------------------

class ByteTokenizer:
    """UTF-8 byte-level tokenizer; ids are byte values offset past specials."""

    def __init__(self):
        self.vocab = Vocab.byte_level()
        self._offset = 3  # bos, eos, unk come first

    def encode(self, text: str) -> List[int]:
        return [b + self._offset for b in text.encode("utf-8")]

    def decode(self, tokens: Sequence[int]) -> str:
        raw = bytes(t - self._offset for t in tokens if t >= self._offset)
        return raw.decode("utf-8", errors="replace")


class WordTokenizer:
    """Whitespace-word tokenizer over a train-built vocabulary; unknown
    eval words map to the reserved unk id."""

    def __init__(self, vocab: Vocab):
        if vocab == Vocab.byte_level():
            raise ConfigError("a word tokenizer needs a word vocabulary, not a byte-level one")
        self.vocab = vocab

    @classmethod
    def from_lines(cls, lines: Sequence[str]) -> "WordTokenizer":
        words = [w for line in lines for w in line.split()]
        return cls(Vocab.from_words(words))

    def encode(self, text: str) -> List[int]:
        unk = self.vocab.unk_id
        return [self.vocab.id_of(w) if self.vocab.id_of(w) is not None else unk
                for w in text.split()]

    def decode(self, tokens: Sequence[int]) -> str:
        return " ".join(self.vocab.piece_of(t) for t in tokens if t > 2)


def _read_lines(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line.strip()]
    except OSError as err:
        raise OSError(f"cannot read corpus file {path}: {err}") from err


def ingest_corpus(path: str, tokenizer: str = "byte", existing=None):
    """Tokenize a corpus file line-by-line.

    Returns (sequences, vocab, tokenizer_obj); each sequence is
    bos + line tokens + eos.  Pass `existing` (a tokenizer built from the
    train split) when ingesting an eval split so the vocabulary is built
    from training data only.
    """
    lines = _read_lines(path)
    if existing is not None:
        tok = existing
    elif tokenizer == "byte":
        tok = ByteTokenizer()
    elif tokenizer == "word":
        tok = WordTokenizer.from_lines(lines)
    else:
        raise ConfigError(f"unknown tokenizer {tokenizer!r}")
    bos, eos = tok.vocab.bos_id, tok.vocab.eos_id
    seqs = [[bos] + tok.encode(line) + [eos] for line in lines]
    return seqs, tok.vocab, tok


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def build_model(name: str, spec: dict, train_seqs, vocab: Optional[Vocab]) -> LanguageModel:
    """The one loader of models: a `"file"` spec loads a saved model, any
    other spec trains one.  A spec that cannot be read or built is a
    ConfigError naming the model, and so is a model whose vocabulary is not
    `vocab` (unless that is None)."""
    with reading(f"model {name!r}"):
        if not isinstance(spec, dict):
            raise TypeError(f"not a JSON object: {spec!r}")
        kind = spec.get("type", "ngram")
        # each type's default weight lives in its constructor
        cost = spec.get("cost_weight")
        weight = {} if cost is None else {"cost_weight": real(cost, "cost_weight")}
        if "file" in spec:
            model = load_model(Path(spec["file"]))
        elif kind == "ngram":
            model = train_ngram(train_seqs, integer(spec.get("order", 3), "order"), vocab,
                                real(spec.get("interpolation", 0.75), "interpolation"),
                                descriptor=name, **weight)
        elif kind == "bigram":
            model = BigramTable.from_corpus(train_seqs, vocab, descriptor=name, **weight)
        elif kind == "mag":
            if spec.get("policy", MATCH_PROMPT_AND_GENERATION) != MATCH_PROMPT_AND_GENERATION:
                raise ConfigError(f"unknown match policy {spec['policy']!r}")
            model = MagModel(BigramTable.from_corpus(train_seqs, vocab),
                             integer(spec.get("span", 10), "span"), descriptor=name, **weight)
        else:
            raise ConfigError(f"unknown model type {kind!r}")
    if vocab is not None and model.vocab != vocab:
        raise ConfigError(f"model {name!r} was trained on a different vocabulary "
                          f"(vocabulary size {model.vocab.size}, expected {vocab.size})")
    return model


# ---------------------------------------------------------------------------
# positional acceptance measurement
# ---------------------------------------------------------------------------

def measure_positional_acceptance(
    target: LanguageModel,
    draft: LanguageModel,
    k: int,
    prompts: Sequence[Sequence[int]],
    steps: int,
    rng: RandomSource,
    mode: DecodeMode = DecodeMode.GREEDY,
) -> GenerationTrace:
    """Run repeated one-level cascade steps (vanilla speculative decoding with
    k-matrix [[k]]), round-robin over the prompts, each restarted from its
    prompt once it has grown by 256 tokens, and return the trace of every
    review.  `positional_curve` of the trace is the per-position acceptance
    curve, the same tally a bench run reports."""
    if k < 1 or steps < 1:
        raise ContractViolation("k and steps must be >= 1")
    if not prompts:
        raise ContractViolation("need at least one prompt")
    config = CascadeConfig(target, [draft], KMatrix([[k]]), mode, 256, rng.seed)
    trace = GenerationTrace(target.descriptor)
    seqs = [list(p) for p in prompts]
    limits = [len(p) + 256 for p in prompts]
    idx = 0
    for _ in range(steps):
        seq = seqs[idx]
        emitted, _ = csd_step(config, seq, rng, trace)
        seq.extend(emitted)
        if len(seq) >= limits[idx]:
            seqs[idx] = list(prompts[idx])
        idx = (idx + 1) % len(prompts)
    return trace


def write_curve_csv(trace: GenerationTrace, path: str) -> None:
    """One row per position of `positional_curve(trace)`.  The conditional
    columns count position i only in the reviews that accepted every
    position before it."""
    outer = [s for s in trace.steps if s.level == 0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_COLUMNS)
        for i, row in enumerate(positional_curve(trace)):
            accepted = sum(s.accepted > i for s in outer)
            cond_n = sum(s.accepted >= i and s.proposed > i for s in outer)
            w.writerow([row["position"], repr(row["accept_rate"]), row["n"],
                        repr(accepted / cond_n if cond_n else 0.0), cond_n])


# ---------------------------------------------------------------------------
# bench runs
# ---------------------------------------------------------------------------

def _merge_traces(traces: Sequence[GenerationTrace], target_descriptor: str) -> GenerationTrace:
    """One trace holding the calls, tokens, reviews and warnings of many runs."""
    merged = GenerationTrace(target_descriptor)
    for t in traces:
        merged.tokens_emitted += t.tokens_emitted
        for m, n in t.calls_per_model.items():
            merged.calls_per_model[m] = merged.calls_per_model.get(m, 0) + n
        merged.cost_weights.update(t.cost_weights)
        merged.steps.extend(t.steps)
        for w in t.warnings:
            if w not in merged.warnings:
                merged.warnings.append(w)
    return merged


def positional_curve(trace: GenerationTrace) -> List[dict]:
    """Per-position acceptance over the outermost reviews: position i of a
    review counts when more than i tokens were proposed, and is accepted
    when more than i were accepted."""
    outer = [s for s in trace.steps if s.level == 0]
    curve = []
    for i in range(max((s.proposed for s in outer), default=0)):
        n = sum(s.proposed > i for s in outer)
        curve.append({"position": i + 1,
                      "accept_rate": sum(s.accepted > i for s in outer) / n,
                      "n": n})
    return curve


def _run_config(run: dict, models: Dict[str, LanguageModel], stop_tokens,
                index: int = 0) -> CascadeConfig:
    """The checked cascade a run spec describes: autoregressive decoding
    has no drafts, plain SD one draft with k-matrix [[k]].  A run's calls
    are counted and priced per descriptor, so two distinct models of one
    run may not share a descriptor (one model twice may).  A spec that does
    not fit is a ConfigError naming the run."""
    label = run.get("name", index) if isinstance(run, dict) else index
    with reading(f"run {label!r}"):
        if not isinstance(run, dict):
            raise TypeError(f"not a JSON object: {run!r}")
        run["name"]  # required: the report lists runs by name
        method = run["method"]
        if method == "sd":
            drafts, k_rows = [run["draft"]], [[run["k"]]]
        elif method == "csd":
            drafts, k_rows = run["drafts"], run["k_matrix"]
        elif method == "autoregressive":
            drafts, k_rows = [], []
        else:
            raise ConfigError(f"unknown run method {method!r}")
        names = [run["target"], *drafts]
        for name in names:
            if name not in models:
                raise ConfigError(f"unknown model {name!r}")
        picked = [models[n] for n in names]
        if len({id(m) for m in picked}) > len({m.descriptor for m in picked}):
            raise ConfigError(f"distinct models share a descriptor: "
                              f"{sorted(m.descriptor for m in picked)}")
        config = CascadeConfig(
            target=picked[0],
            drafts=picked[1:],
            k_matrix=KMatrix(k_rows),
            mode=DecodeMode(run.get("mode", "greedy")),
            max_new_tokens=integer(run["max_new_tokens"], "max_new_tokens", 1),
            seed=integer(run["seed"], "seed"),
            lenience=real(run.get("lenience", 1.0), "lenience"),
            stop_tokens=stop_tokens,
        )
    return config


def run_bench(config: dict) -> dict:
    """Build every run's cascade, then execute the runs and assemble the
    report dict; a config that does not fit, a malformed run or a price map
    that misses one of a run's models stops the bench before any run decodes.

    Greedy runs are verified token-for-token against autoregressive target
    output before the report is written, and any mismatch is a BenchError:
    every model `build_model` makes scores deterministically.
    """
    with reading("bench config"):
        corpus, specs, runs = config["corpus"], dict(config["models"]), list(config["runs"])
        # a Path, not a bare int, which open() would take as a file descriptor
        train_path, eval_path = Path(corpus["train"]), Path(corpus["eval"])
        tokenizer = corpus.get("tokenizer", "byte")
        n_prompts = integer(config.get("num_prompts", sys.maxsize), "num_prompts")  # default: all
        prompt_tokens = integer(config.get("prompt_tokens", 32), "prompt_tokens", 1)
        cost_models = config.get("cost_models") or {"ms": None}
        if not isinstance(cost_models, dict):
            raise TypeError(f"cost_models is not a JSON object: {cost_models!r}")
        for preset, prices in cost_models.items():
            if prices is not None and not isinstance(prices, dict):
                raise TypeError(f"cost model {preset!r} is neither a JSON object nor null: "
                                f"{prices!r}")
    train_seqs, vocab, tok = ingest_corpus(train_path, tokenizer)
    eval_seqs, _, _ = ingest_corpus(eval_path, tokenizer, existing=tok)

    models = {name: build_model(name, spec, train_seqs, vocab) for name, spec in specs.items()}

    prompts = [seq[:prompt_tokens] for seq in eval_seqs[:n_prompts]]
    if not prompts:
        raise ConfigError("bench has no prompts: num_prompts or the eval corpus is empty")
    stop_tokens = frozenset({vocab.eos_id})
    run_configs = [_run_config(run, models, stop_tokens, i) for i, run in enumerate(runs)]
    for preset, prices in cost_models.items():
        unpriced = [m.descriptor for cfg in run_configs for m in [cfg.target, *cfg.drafts]
                    if prices is not None and m.descriptor not in prices]
        if unpriced:
            raise ConfigError(f"cost model {preset!r} has no price for model {unpriced[0]!r}")
        # a null preset prices each model at its cost weight
        targets = {cfg.target.descriptor: cfg.target.cost_weight for cfg in run_configs}
        for name, price in (targets if prices is None else prices).items():
            with reading(f"cost model {preset!r} prices model {name!r} at {price!r}"):
                if not (0 <= real(price, "price") < np.inf and (price > 0 or name not in targets)):
                    raise ValueError("a price must be finite and >= 0, and a target's > 0")
    greedy_cache: Dict[tuple, List[List[int]]] = {}

    report_runs = []
    for run, cfg in zip(runs, run_configs):
        t0 = time.perf_counter()
        outs, traces = zip(*[generate(replace(cfg, seed=cfg.seed + j), prompt)
                             for j, prompt in enumerate(prompts)])
        elapsed = time.perf_counter() - t0
        target = cfg.target
        merged = _merge_traces(traces, target.descriptor)

        if cfg.mode is DecodeMode.GREEDY:
            key = (run["target"], cfg.max_new_tokens)
            if key not in greedy_cache:
                greedy_cache[key] = [
                    autoregressive_generate(target, p, cfg.max_new_tokens,
                                            DecodeMode.GREEDY, RandomSource(0),
                                            stop_tokens)[0]
                    for p in prompts
                ]
            refs = greedy_cache[key]
            diffs = [j for j, (o, r) in enumerate(zip(outs, refs)) if o != r]
            if diffs:
                j = diffs[0]
                raise BenchError(
                    f"run {run['name']!r} broke greedy equivalence on "
                    f"{len(diffs)} prompts; first mismatch prompt {j}: "
                    f"got {outs[j][len(prompts[j]):][:20]} vs "
                    f"target {refs[j][len(prompts[j]):][:20]}")

        swi_values = {}
        for preset, mapping in sorted(cost_models.items()):
            price = dict(merged.cost_weights) if mapping is None else dict(mapping)
            swi_values[preset] = swi(merged, price)

        report_runs.append({
            "name": run["name"],
            "method": run["method"],
            "target": target.descriptor,
            "mode": cfg.mode.value,
            "tokens_emitted": merged.tokens_emitted,
            "calls_per_model": dict(sorted(merged.calls_per_model.items())),
            "cost_units": merged.cost_units,
            "swi": swi_values,
            "greedy_equivalent": True if cfg.mode is DecodeMode.GREEDY else None,
            "positional_acceptance": positional_curve(merged),
            "warnings": merged.warnings,
        })
        print(f"[{run['name']}] tokens={merged.tokens_emitted} "
              f"swi={ {k: round(v, 3) for k, v in swi_values.items()} } "
              f"wall={elapsed:.2f}s", file=sys.stderr)

    return {"report_version": REPORT_VERSION, "runs": report_runs}


def write_report(report: dict, json_path: str, csv_path: str) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for run in report["runs"]:
            calls = run["calls_per_model"]
            w.writerow([
                run["name"], run["method"], run["tokens_emitted"],
                calls.get(run["target"], 0), sum(calls.values()),
                repr(run["cost_units"]),
                repr(run["swi"].get("ms", run["swi"][sorted(run["swi"])[0]])),
                run["greedy_equivalent"],
            ])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    seqs, vocab, _ = ingest_corpus(args.corpus, args.tokenizer)
    spec = {k: v for k, v in vars(args).items() if v is not None}
    model = build_model(args.name or Path(args.out).stem, spec, seqs, vocab)
    save_model(model, args.out)
    print(f"trained {model.descriptor} on {len(seqs)} sequences -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    """Generate from byte-level model files; the flags are a run spec."""
    tok = ByteTokenizer()
    paths = dict.fromkeys(p for p in [args.target, args.draft, *(args.drafts or [])] if p)
    models = {p: build_model(p, {"file": p}, None, tok.vocab) for p in paths}
    run = dict({k: v for k, v in vars(args).items() if v is not None}, name="run",
               method="csd" if args.drafts else "sd" if args.draft else "autoregressive")
    cfg = _run_config(run, models, frozenset({tok.vocab.eos_id}))
    out, trace = generate(cfg, [tok.vocab.bos_id] + tok.encode(args.prompt))
    print(tok.decode(out))
    print(f"-- tokens={trace.tokens_emitted} calls={trace.calls_per_model} "
          f"cost={trace.cost_units:.1f}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    with reading(f"bench config {args.config}"):
        config = json.loads(text)
        if not isinstance(config, dict):
            raise TypeError(f"not a JSON object: {config!r}")
        # checked before any run decodes
        json_path = args.out or config.get("report", "report.json")
        if not isinstance(json_path, str):
            raise TypeError(f"report {json_path!r} is not a path")
        csv_path = Path(json_path).with_suffix(".csv")
    report = run_bench(config)
    write_report(report, json_path, csv_path)
    print(f"report written to {json_path} and {csv_path}")
    return 0


def _cmd_analyze(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    with reading(f"grid {args.config}"):
        grid = json.loads(text)
        rows = ewif_comparison_table(grid["grid"],
                                     integer(grid.get("trials", 1_000_000), "trials"),
                                     RandomSource(integer(grid.get("seed", 0), "seed")))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "method", "ewif_closed", "ewif_simulated", "ci95", "trials"])
        for row in rows:
            w.writerow([row["name"], row["method"], repr(row["ewif_closed"]),
                        repr(row["ewif_simulated"]), repr(row["ci95"]), row["trials"]])
    for row in rows:
        print(f"{row['name']}: closed={row['ewif_closed']:.4f} "
              f"simulated={row['ewif_simulated']:.4f} +- {row['ci95']:.4f}")
    return 0


def _cmd_accept_curve(args) -> int:
    """Measure over the corpus tokenized in the target's vocabulary."""
    integer(args.num_prompts, "--num-prompts", 1)
    integer(args.prompt_tokens, "--prompt-tokens", 1)
    target = build_model(args.target, {"file": args.target}, None,
                         Vocab.byte_level() if args.tokenizer == "byte" else None)
    tok = WordTokenizer(target.vocab) if args.tokenizer == "word" else ByteTokenizer()
    draft = build_model(args.draft, {"file": args.draft}, None, tok.vocab)
    seqs, _, _ = ingest_corpus(args.corpus, existing=tok)
    prompts = [s[:args.prompt_tokens] for s in seqs[:args.num_prompts]]
    trace = measure_positional_acceptance(
        target, draft, args.k, prompts, args.steps, RandomSource(args.seed),
        DecodeMode(args.mode))
    write_curve_csv(trace, args.out)
    print(f"curve over {args.steps} steps written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="specdraft",
                                description="cascade speculative drafting toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a statistical model from a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--order", type=int, default=3)
    t.add_argument("--type", choices=["ngram", "bigram", "mag"], default="ngram")
    t.add_argument("--tokenizer", choices=["byte", "word"], default="byte")
    t.add_argument("--span", type=int, default=10)
    t.add_argument("--interpolation", type=float, default=0.75)
    t.add_argument("--cost-weight", type=float, default=None)
    t.add_argument("--name", default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_train)

    r = sub.add_parser("run", help="generate from a prompt")
    r.add_argument("--target", required=True)
    r.add_argument("--draft", default=None)
    r.add_argument("--drafts", nargs="*", default=None)
    r.add_argument("--k", type=int, default=8)
    r.add_argument("--k-matrix", type=json.loads, default=None, help="JSON square matrix")
    r.add_argument("--lenience", type=float, default=1.0)
    r.add_argument("--prompt", required=True)
    r.add_argument("--mode", choices=["greedy", "sampling"], default="greedy")
    r.add_argument("--max-new-tokens", type=int, default=128)
    r.add_argument("--seed", type=int, required=True)
    r.set_defaults(func=_cmd_run)

    b = sub.add_parser("bench", help="execute a benchmark config")
    b.add_argument("--config", required=True)
    b.add_argument("--out", default=None)
    b.set_defaults(func=_cmd_bench)

    a = sub.add_parser("analyze", help="closed-form vs simulated improvement grid")
    a.add_argument("--config", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_analyze)

    c = sub.add_parser("accept-curve", help="positional acceptance measurement")
    c.add_argument("--target", required=True)
    c.add_argument("--draft", required=True)
    c.add_argument("--k", type=int, default=30)
    c.add_argument("--steps", type=int, default=1000)
    c.add_argument("--corpus", required=True)
    c.add_argument("--tokenizer", choices=["byte", "word"], default="byte")
    c.add_argument("--num-prompts", type=int, default=20)
    c.add_argument("--prompt-tokens", type=int, default=32)
    c.add_argument("--mode", choices=["greedy", "sampling"], default="greedy")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_accept_curve)
    return p


def cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ContractViolation) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
