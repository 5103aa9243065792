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
from typing import Dict, List, Optional, Sequence, Tuple

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
from .core import ConfigError, ContractViolation, LanguageModel, RandomSource, Vocab
from .kernel import DecodeMode
from .statlm import (
    MATCH_PROMPT_AND_GENERATION,
    BigramModel,
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

def build_model(name: str, spec: dict, train_seqs, vocab: Vocab) -> LanguageModel:
    if "file" in spec:
        model = load_model(spec["file"])
        if model.vocab != vocab:
            raise ConfigError(f"model {name!r} was trained on a different vocabulary")
        return model
    kind = spec.get("type", "ngram")
    cost_weight = spec.get("cost_weight")
    if kind == "ngram":
        return train_ngram(train_seqs, int(spec.get("order", 3)), vocab,
                           interpolation=float(spec.get("interpolation", 0.75)),
                           cost_weight=cost_weight, descriptor=name)
    table = BigramTable.from_corpus(train_seqs, vocab)
    if kind == "bigram":
        return BigramModel(table, cost_weight if cost_weight is not None else 1.0, name)
    if kind == "mag":
        policy = spec.get("policy", MATCH_PROMPT_AND_GENERATION)
        if policy != MATCH_PROMPT_AND_GENERATION:
            raise ConfigError(f"unknown match policy {policy!r} for model {name!r}")
        return MagModel(table, span=int(spec.get("span", 10)),
                        cost_weight=cost_weight if cost_weight is not None else 0.0,
                        descriptor=name)
    raise ConfigError(f"unknown model type {kind!r} for model {name!r}")


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
    max_len: int = 256,
) -> GenerationTrace:
    """Run repeated one-level cascade steps (vanilla speculative decoding with
    k-matrix [[k]]), round-robin over the prompts, each restarted from its
    prompt once it has grown by `max_len`, and return the trace of every
    review.  `positional_curve` of the trace is the per-position acceptance
    curve, the same tally a bench run reports."""
    if k < 1 or steps < 1:
        raise ContractViolation("k and steps must be >= 1")
    if not prompts:
        raise ContractViolation("need at least one prompt")
    k_matrix = KMatrix([[k]])
    CascadeConfig(target, [draft], k_matrix, mode, max_len, rng.seed).validate()
    trace = GenerationTrace(target.descriptor)
    seqs = [list(p) for p in prompts]
    limits = [len(p) + max_len for p in prompts]
    idx = 0
    for _ in range(steps):
        seq = seqs[idx]
        emitted, _ = csd_step(target, [draft], seq, k_matrix, 1.0, mode, rng, trace)
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

def _merge_traces(traces: List[GenerationTrace], target_descriptor: str) -> GenerationTrace:
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


#: the keys every run spec needs, and the ones its method adds
_RUN_KEYS = ("name", "method", "target", "max_new_tokens", "seed")
_METHOD_KEYS = {"autoregressive": (), "sd": ("draft", "k"), "csd": ("drafts", "k_matrix")}


def _run_config(run: dict, models: Dict[str, LanguageModel],
                stop_tokens) -> CascadeConfig:
    """The cascade a run spec describes: autoregressive decoding has no
    drafts, plain SD one draft with k-matrix [[k]]."""
    def pick(name: str) -> LanguageModel:
        if name not in models:
            raise ConfigError(f"run {run.get('name')!r} names unknown model {name!r}")
        return models[name]

    method = run["method"]
    if method == "autoregressive":
        drafts, k_matrix = [], KMatrix([])
    elif method == "sd":
        drafts, k_matrix = [pick(run["draft"])], KMatrix([[int(run["k"])]])
    elif method == "csd":
        drafts, k_matrix = [pick(d) for d in run["drafts"]], KMatrix(run["k_matrix"])
    else:
        raise ConfigError(f"unknown run method {method!r}")
    return CascadeConfig(
        target=pick(run["target"]),
        drafts=drafts,
        k_matrix=k_matrix,
        mode=DecodeMode(run.get("mode", "greedy")),
        max_new_tokens=int(run["max_new_tokens"]),
        seed=int(run["seed"]),
        lenience=float(run.get("lenience", 1.0)),
        stop_tokens=stop_tokens,
        allow_inexact_sampling=bool(run.get("allow_inexact_sampling", False)),
    )


def _run_one(run: dict, models: Dict[str, LanguageModel],
             prompts: List[List[int]], stop_tokens) -> Tuple[List[List[int]], List[GenerationTrace]]:
    config = _run_config(run, models, stop_tokens)
    outs, traces = [], []
    for j, prompt in enumerate(prompts):
        out, trace = generate(replace(config, seed=config.seed + j), prompt)
        outs.append(out)
        traces.append(trace)
    return outs, traces


def run_bench(config: dict, quiet: bool = False) -> dict:
    """Execute every run spec and assemble the report dict.

    Greedy runs are verified token-for-token against autoregressive target
    output before the report is written; a mismatch aborts unless the target
    reports non-deterministic scoring, in which case a warning is recorded.
    """
    for index, run in enumerate(config["runs"]):
        for key in _RUN_KEYS + _METHOD_KEYS.get(run.get("method"), ()):
            if key not in run:
                raise ConfigError(f"run {run.get('name', index)!r} lacks required key {key!r}")
    corpus = config["corpus"]
    tokenizer = corpus.get("tokenizer", "byte")
    train_seqs, vocab, tok = ingest_corpus(corpus["train"], tokenizer)
    eval_seqs, _, _ = ingest_corpus(corpus["eval"], tokenizer, existing=tok)

    models = {name: build_model(name, spec, train_seqs, vocab)
              for name, spec in config["models"].items()}

    n_prompts = int(config.get("num_prompts", len(eval_seqs)))
    prompt_tokens = int(config.get("prompt_tokens", 32))
    prompts = [seq[:max(1, prompt_tokens)] for seq in eval_seqs[:n_prompts]]
    stop_tokens = frozenset({vocab.eos_id} if config.get("stop_at_eos", True) else set())

    cost_models = config.get("cost_models") or {"ms": None}
    greedy_cache: Dict[tuple, List[List[int]]] = {}

    report_runs = []
    for run in config["runs"]:
        t0 = time.perf_counter()
        outs, traces = _run_one(run, models, prompts, stop_tokens)
        elapsed = time.perf_counter() - t0
        target = models[run["target"]]
        merged = _merge_traces(traces, target.descriptor)

        mode = DecodeMode(run.get("mode", "greedy"))
        greedy_ok: Optional[bool] = None
        if mode is DecodeMode.GREEDY:
            key = (run["target"], int(run["max_new_tokens"]))
            if key not in greedy_cache:
                greedy_cache[key] = [
                    autoregressive_generate(target, p, int(run["max_new_tokens"]),
                                            DecodeMode.GREEDY, RandomSource(0),
                                            stop_tokens)[0]
                    for p in prompts
                ]
            refs = greedy_cache[key]
            greedy_ok = all(o == r for o, r in zip(outs, refs))
            if not greedy_ok:
                if getattr(target, "deterministic", True):
                    diffs = [j for j, (o, r) in enumerate(zip(outs, refs)) if o != r]
                    j = diffs[0]
                    raise BenchError(
                        f"run {run['name']!r} broke greedy equivalence on "
                        f"{len(diffs)} prompts; first mismatch prompt {j}: "
                        f"got {outs[j][len(prompts[j]):][:20]} vs "
                        f"target {refs[j][len(prompts[j]):][:20]}"
                    )
                merged.warnings.append(
                    f"greedy mismatch tolerated: target {target.descriptor!r} "
                    "is non-deterministic"
                )

        swi_values = {}
        for preset, mapping in sorted(cost_models.items()):
            price = dict(merged.cost_weights) if mapping is None else dict(mapping)
            swi_values[preset] = swi(merged, price)

        entry = {
            "name": run["name"],
            "method": run["method"],
            "target": target.descriptor,
            "mode": mode.value,
            "tokens_emitted": merged.tokens_emitted,
            "calls_per_model": dict(sorted(merged.calls_per_model.items())),
            "cost_units": merged.cost_units,
            "swi": swi_values,
            "greedy_equivalent": greedy_ok,
            "positional_acceptance": positional_curve(merged),
            "warnings": merged.warnings,
        }
        report_runs.append(entry)
        if not quiet:
            print(f"[{run['name']}] tokens={merged.tokens_emitted} "
                  f"swi={ {k: round(v, 3) for k, v in swi_values.items()} } "
                  f"wall={elapsed:.2f}s", file=sys.stderr)

    return {"report_version": REPORT_VERSION, "runs": report_runs}


def write_report(report: dict, json_path: str, csv_path: Optional[str] = None) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if csv_path:
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
    spec = {"type": args.type, "order": args.order, "span": args.span,
            "interpolation": args.interpolation}
    if args.cost_weight is not None:
        spec["cost_weight"] = args.cost_weight
    model = build_model(args.name or args.type, spec, seqs, vocab)
    save_model(model, args.out)
    print(f"trained {model.descriptor} on {len(seqs)} sequences -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    target = load_model(args.target)
    tok = ByteTokenizer()
    if target.vocab != tok.vocab:
        raise ConfigError("run currently supports byte-level models only")
    prompt = [tok.vocab.bos_id] + tok.encode(args.prompt)
    if args.drafts:
        if not args.k_matrix:
            raise ConfigError("--drafts requires --k-matrix")
        drafts = [load_model(p) for p in args.drafts]
        k_matrix = KMatrix(json.loads(args.k_matrix))
    elif args.draft:
        drafts, k_matrix = [load_model(args.draft)], KMatrix([[args.k]])
    else:
        drafts, k_matrix = [], KMatrix([])
    cfg = CascadeConfig(target, drafts, k_matrix, DecodeMode(args.mode),
                        args.max_new_tokens, args.seed, lenience=args.lenience,
                        stop_tokens=frozenset({tok.vocab.eos_id}))
    out, trace = generate(cfg, prompt)
    print(tok.decode(out))
    print(f"-- tokens={trace.tokens_emitted} calls={trace.calls_per_model} "
          f"cost={trace.cost_units:.1f}", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    report = run_bench(config)
    json_path = args.out or config.get("report", "report.json")
    csv_path = json_path.rsplit(".", 1)[0] + ".csv"
    write_report(report, json_path, csv_path)
    print(f"report written to {json_path} and {csv_path}")
    return 0


def _cmd_analyze(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        grid = json.load(fh)
    rng = RandomSource(int(grid.get("seed", 0)))
    rows = ewif_comparison_table(grid["grid"], int(grid.get("trials", 1_000_000)), rng)
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
    target = load_model(args.target)
    draft = load_model(args.draft)
    seqs, _, _ = ingest_corpus(args.corpus, args.tokenizer)
    prompts = [s[:max(1, args.prompt_tokens)] for s in seqs[:args.num_prompts]]
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
    r.add_argument("--k-matrix", default=None, help="JSON square matrix")
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
