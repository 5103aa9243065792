"""Acceptance gate: one test per release criterion, each recording a PASS/FAIL
line that conftest echoes after the run.

These tests are intentionally end-to-end and statistical; every tolerance is
stated inline next to the check it guards.
"""
import copy
import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from specdraft.analytics import (
    AcceptanceProfile,
    ewif_comparison_table,
    gen_fn,
    gen_fn_coeffs,
    horizontal_ewif,
    horizontal_ewif_grad,
    sd_ewif,
    simulate_horizontal_ewif,
    simulate_vertical_ewif,
    synthetic_pair,
    vertical_ewif,
)
from specdraft.bench import (
    measure_positional_acceptance,
    positional_curve,
    run_bench,
    write_report,
)
from specdraft.cascade import (
    CascadeConfig,
    GenerationTrace,
    KMatrix,
    autoregressive_generate,
    csd_step,
    generate,
)
from specdraft.core import ContextConditionedModel, RandomSource, Vocab, normalize, residual
from specdraft.kernel import DecodeMode
from specdraft.remote import RemoteModel, RemoteModelSpec, serve_model
from specdraft.statlm import mag_propose, train_ngram

from conftest import CRITERION_LINES

ROOT = Path(__file__).resolve().parent.parent


def _report(num, desc, ok):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. greedy exactness across shipped cascade shapes
# ---------------------------------------------------------------------------

def test_criterion_01_greedy_exactness(models, eval_prompts):
    target = models["n7"]
    shapes = [
        ("1-draft", [models["n3"]], [[8]]),
        ("2-draft", [models["n3"], models["mag"]], [[2, 10], [0, 10]]),
        ("3-draft", [models["n3"], models["n2"], models["mag"]],
         [[3, 2, 10], [0, 2, 10], [0, 0, 10]]),
    ]
    refs = [autoregressive_generate(target, p, 96)[0] for p in eval_prompts]
    mismatches = 0
    for label, drafts, km in shapes:
        for lenience in (1.0, 3.0, 5.0):
            for j, prompt in enumerate(eval_prompts):
                cfg = CascadeConfig(target, drafts, KMatrix(km), DecodeMode.GREEDY,
                                    max_new_tokens=96, seed=100 + j, lenience=lenience)
                out, _ = generate(cfg, prompt)
                mismatches += out != refs[j]
    _report(1, "greedy cascade output byte-identical to target-only greedy "
               "(100 prompts x 3 shapes x lenience {1,3,5})", mismatches == 0)


# ---------------------------------------------------------------------------
# 2. sampling exactness
# ---------------------------------------------------------------------------

class _RowModel(ContextConditionedModel):
    """V=5 toy family: the conditional depends on the last token only."""

    def __init__(self, rows, descriptor):
        self._rows = [normalize(r) for r in rows]
        vocab = Vocab(tuple(f"<{i}>" for i in range(len(rows))))
        super().__init__(vocab, 1.0, descriptor)

    def distribution(self, context):
        return self._rows[context[-1] if context else 0]


def _toy_family():
    base_t = np.array([0.8, 0.1, 0.05, 0.03, 0.02])
    base_d = np.array([0.5, 0.25, 0.1, 0.1, 0.05])
    target = _RowModel([np.roll(base_t, t) for t in range(5)], "toy-target")
    draft = _RowModel([np.roll(base_d, t + 2) for t in range(5)], "toy-draft")
    return target, draft


def test_criterion_02_sampling_exactness():
    target, draft = _toy_family()

    # single-step branch enumeration: accept mass + rejection mass routed
    # through the residual reproduces the target conditional exactly
    worst = 0.0
    for t in range(5):
        p = target.distribution([t])
        q = draft.distribution([t])
        overlap = np.minimum(p, q)
        marginal = overlap + (1.0 - overlap.sum()) * residual(p, q)
        worst = max(worst, float(np.max(np.abs(marginal - p))))

    n = 200_000
    counts_c = {}
    counts_t = {}
    for i in range(n):
        cfg = CascadeConfig(target, [draft], KMatrix([[3]]), DecodeMode.SAMPLING,
                            max_new_tokens=3, seed=i)
        out, _ = generate(cfg, [0])
        key = tuple(out[1:4])
        counts_c[key] = counts_c.get(key, 0) + 1
        out_t, _ = autoregressive_generate(target, [0], 3, DecodeMode.SAMPLING,
                                           RandomSource(10_000_000 + i))
        key_t = tuple(out_t[1:4])
        counts_t[key_t] = counts_t.get(key_t, 0) + 1
    tv = 0.5 * sum(abs(counts_c.get(k, 0) - counts_t.get(k, 0)) / n
                   for k in set(counts_c) | set(counts_t))
    _report(2, f"sampling exactness: branch identity {worst:.2e} <= 1e-12, "
               f"3-token TV {tv:.4f} <= 0.01 at 2e5 samples",
            worst <= 1e-12 and tv <= 0.01)


# ---------------------------------------------------------------------------
# 3. emitted-length generating function
# ---------------------------------------------------------------------------

def test_criterion_03_gen_fn_coefficients():
    worst = 0.0
    for alpha in (0.1, 0.35, 0.6, 0.85):
        for k in (1, 2, 3, 4):
            probs = np.zeros(k + 2)
            for pattern in range(2 ** k):
                bits = [(pattern >> i) & 1 for i in range(k)]
                run = 0
                while run < k and bits[run]:
                    run += 1
                weight = 1.0
                for b in bits:
                    weight *= alpha if b else 1 - alpha
                probs[run + 1] += weight
            worst = max(worst, float(np.max(np.abs(probs - gen_fn_coeffs(alpha, k)))))
    edges_ok = all(abs(gen_fn(a, k, 1.0) - 1.0) < 1e-12 and gen_fn(a, k, 0.0) == 0.0
                   for a in (0.0, 0.2, 0.5, 0.8, 0.99) for k in (1, 3, 8, 15))
    _report(3, f"emitted-length pgf coefficients vs enumeration, max err {worst:.2e} "
               "<= 1e-12; f(1)=1 and f(0)=0 on the grid",
            worst <= 1e-12 and edges_ok)


# ---------------------------------------------------------------------------
# 4. plain-SD speedup on live synthetic pairs
# ---------------------------------------------------------------------------

def test_criterion_04_live_sd_speedup():
    cases = [(0.6, 3, 2.176), (0.8, 5, 3.68928)]
    ok = True
    details = []
    for alpha, k, want in cases:
        target, draft = synthetic_pair([0.5, 0.3, 0.2], alpha)
        rng = RandomSource(int(alpha * 1000) + k)
        steps = 100_000
        emitted = 0
        # plain SD: the one-level cascade
        cfg = CascadeConfig(target, [draft], KMatrix([[k]]), DecodeMode.SAMPLING,
                            k + 1, rng.seed)
        for _ in range(steps):
            new, _ = csd_step(cfg, [0], rng, GenerationTrace())
            emitted += len(new)
        got = emitted / steps  # one target call per step
        details.append(f"alpha={alpha},k={k}: {got:.4f} vs {want}")
        ok = ok and abs(got - want) / want < 0.01
    _report(4, "tokens per target call within 1% of closed form over 1e5 steps "
               f"({'; '.join(details)})", ok)


# ---------------------------------------------------------------------------
# 5. two-level recursive cascade closed form
# ---------------------------------------------------------------------------

def test_criterion_05_vertical_closed_form():
    pinned = [(0.8, 0.7, 4, 3, 0.05, 0.001),
              (0.5, 0.5, 2, 2, 0.10, 0.010),
              (0.9, 0.3, 6, 4, 0.02, 0.000)]
    sim_ok = True
    for i, args in enumerate(pinned):
        closed = vertical_ewif(*args)
        est = simulate_vertical_ewif(*args, 1_000_000, RandomSource(500 + i))
        sim_ok = sim_ok and abs(est.mean - closed) <= 3 * est.ci95

    violations = 0
    alphas = np.round(np.arange(0.1, 0.95, 0.1), 2)
    for a in alphas:
        for ap in alphas:
            for k in range(1, 9):
                for n in range(1, 9):
                    for c1 in (0.01, 0.05, 0.1):
                        if vertical_ewif(a, ap, k, n, c1, 0.0) <= sd_ewif(a, c1, n):
                            violations += 1
    _report(5, "two-level cascade closed form within 3*CI of 1e6-trial simulation; "
               f"free-inner-cost dominance grid violations = {violations}",
            sim_ok and violations == 0)


# ---------------------------------------------------------------------------
# 6. per-stage cascade closed form and its gradient
# ---------------------------------------------------------------------------

def test_criterion_06_horizontal_closed_form():
    profiles = [AcceptanceProfile((0.9, 0.5), (0.05, 0.01)),
                AcceptanceProfile.uniform(0.7, 0.03, 5),
                AcceptanceProfile((0.3, 0.8, 0.6), (0.1, 0.05, 0.02))]
    sim_ok = True
    for i, prof in enumerate(profiles):
        closed = horizontal_ewif(prof)
        est = simulate_horizontal_ewif(prof, 1_000_000, RandomSource(600 + i))
        sim_ok = sim_ok and abs(est.mean - closed) <= 3 * est.ci95

    rng = np.random.default_rng(42)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        alphas = rng.uniform(0.02, 0.95, k)
        costs = rng.uniform(0.0, 0.1, k)
        prof = AcceptanceProfile(tuple(alphas), tuple(costs))
        l = int(rng.integers(1, k + 1))
        up = list(alphas)
        dn = list(alphas)
        up[l - 1] += h
        dn[l - 1] -= h
        fd = (horizontal_ewif(AcceptanceProfile(tuple(up), tuple(costs)))
              - horizontal_ewif(AcceptanceProfile(tuple(dn), tuple(costs)))) / (2 * h)
        worst = max(worst, abs(fd - horizontal_ewif_grad(prof, l)))
    _report(6, "per-stage closed form within 3*CI of simulation; gradient vs "
               f"central difference max err {worst:.2e} <= 1e-6",
            sim_ok and worst <= 1e-6)


# ---------------------------------------------------------------------------
# 7. positional acceptance decay
# ---------------------------------------------------------------------------

def test_criterion_07_positional_decay(models, eval_prompts):
    alpha, k, steps = 0.8, 30, 20_000
    target, draft = synthetic_pair([0.5, 0.3, 0.2], alpha)
    curve = positional_curve(measure_positional_acceptance(
        target, draft, k, [[0]], steps, RandomSource(700), DecodeMode.SAMPLING))
    synth_ok = True
    for i in range(k):
        want = alpha ** (i + 1)
        ci = 1.96 * np.sqrt(want * (1 - want) / steps)
        synth_ok = synth_ok and abs(curve[i]["accept_rate"] - want) <= 3 * ci

    real = positional_curve(measure_positional_acceptance(
        models["n7"], models["n2"], 30, eval_prompts[:20], 10_000, RandomSource(701)))
    rates = [real[i]["accept_rate"] for i in range(30)]
    rho, p_value = stats.spearmanr(np.arange(30), rates)
    _report(7, f"synthetic curve tracks {alpha}^i within 3*CI over {steps} steps; "
               f"real-model curve decays (spearman rho={rho:.3f}, p={p_value:.2e})",
            synth_ok and rho < 0 and p_value < 0.01)


# ---------------------------------------------------------------------------
# 8. benchmark speedup ordering
# ---------------------------------------------------------------------------

def test_criterion_08_bench_swi_ordering():
    config = json.loads((ROOT / "configs" / "bench_example.json").read_text())
    for key in ("train", "eval"):
        config["corpus"][key] = str(ROOT / config["corpus"][key])
    report = run_bench(config)
    swi = {r["name"]: r["swi"]["ms"] for r in report["runs"]}
    best_sd = max(v for n, v in swi.items() if n.startswith("sd-"))
    cascade = swi["csd-n3-n2-mag"]
    auto = swi["autoregressive"]
    _report(8, f"SWI ordering: cascade {cascade:.3f} > best single-draft SD "
               f"{best_sd:.3f} >= autoregressive {auto:.3f} = 1",
            cascade > best_sd >= auto and abs(auto - 1.0) < 1e-12)


# ---------------------------------------------------------------------------
# 9. suffix-copy drafter correctness and benefit
# ---------------------------------------------------------------------------

def _oracle(generated, corpus, n):
    cb = bytes(corpus)
    for m in range(len(generated), 0, -1):
        i = cb.find(bytes(generated[-m:]))
        if i >= 0:
            return list(corpus[i + m:i + m + n])
    return None


def test_criterion_09_suffix_copy(models, eval_prompts):
    rng = np.random.default_rng(9)
    disagreements = 0
    for _ in range(10_000):
        v = int(rng.integers(2, 17))
        corpus = rng.integers(0, v, int(rng.integers(1, 65))).tolist()
        generated = rng.integers(0, v, int(rng.integers(1, 65))).tolist()
        n = int(rng.integers(1, 9))
        if mag_propose(generated, corpus, n) != _oracle(generated, corpus, n):
            disagreements += 1

    def mean_accepted(draft):
        total, reviews = 0, 0
        for j, prompt in enumerate(eval_prompts[:10]):
            cfg = CascadeConfig(models["n7"], [draft], KMatrix([[10]]),
                                DecodeMode.GREEDY, max_new_tokens=96, seed=900 + j)
            _, trace = generate(cfg, prompt)
            for s in trace.steps:
                if s.level == 0:
                    total += s.accepted
                    reviews += 1
        return total / reviews

    mag_len = mean_accepted(models["mag"])
    bigram_len = mean_accepted(models["bigram"])
    _report(9, f"10k random suffix-copy proposals match the brute-force oracle "
               f"({disagreements} disagreements); accepted-run length "
               f"{mag_len:.2f} (copy drafter) > {bigram_len:.2f} (bigram)",
            disagreements == 0 and mag_len > bigram_len)


# ---------------------------------------------------------------------------
# 10. improvement-comparison machinery
# ---------------------------------------------------------------------------

def test_criterion_10_comparison_table():
    rows = [
        {"name": "single-small", "method": "sd", "alpha": 0.6, "c": 0.01, "k": 9},
        {"name": "single-base", "method": "sd", "alpha": 0.7, "c": 0.04, "k": 8},
        {"name": "two-stage", "method": "horizontal",
         "alphas": [0.7, 0.6], "cs": [0.04, 0.01], "ks": [5, 3]},
        {"name": "two-level", "method": "vertical", "alpha": 0.8,
         "alpha_prime": 0.7, "k": 4, "n": 3, "c1": 0.05, "c2": 0.001},
    ]
    table = ewif_comparison_table(rows, 1_000_000, RandomSource(1000))
    worst = max(abs(r["ewif_simulated"] - r["ewif_closed"]) / r["ewif_closed"]
                for r in table)
    _report(10, f"comparison table self-consistency: max closed-vs-simulated "
                f"gap {worst:.4%} <= 1%", worst <= 0.01)


# ---------------------------------------------------------------------------
# 11. reproducibility and wire transparency
# ---------------------------------------------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    config = json.loads((ROOT / "configs" / "decoder_only.json").read_text())
    for key in ("train", "eval"):
        config["corpus"][key] = str(ROOT / config["corpus"][key])
    paths = []
    for tag in ("a", "b"):
        report = run_bench(copy.deepcopy(config))
        jp = tmp_path / f"report_{tag}.json"
        cp = tmp_path / f"report_{tag}.csv"
        write_report(report, str(jp), str(cp))
        paths.append((jp, cp))
    identical = (paths[0][0].read_bytes() == paths[1][0].read_bytes()
                 and paths[0][1].read_bytes() == paths[1][1].read_bytes())

    vocab = Vocab(tuple(f"<{i}>" for i in range(8)))
    corpus = [0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 5, 3, 0, 1, 2, 3]
    target = train_ngram(corpus, 4, vocab, descriptor="t")
    draft = train_ngram(corpus, 2, vocab, descriptor="d")
    cfg = CascadeConfig(target, [draft], KMatrix([[4]]), DecodeMode.GREEDY,
                        max_new_tokens=24, seed=5)
    out_local, trace_local = generate(cfg, [0, 1])
    with serve_model(draft) as server:
        remote = RemoteModel(RemoteModelSpec(server.url, vocab_size=8,
                                             descriptor="d"), vocab=vocab)
        cfg_r = CascadeConfig(target, [remote], KMatrix([[4]]), DecodeMode.GREEDY,
                              max_new_tokens=24, seed=5)
        out_remote, trace_remote = generate(cfg_r, [0, 1])
    wire_ok = (out_remote == out_local
               and trace_remote.calls_per_model == trace_local.calls_per_model
               and [(s.level, s.model, s.proposed, s.accepted)
                    for s in trace_remote.steps]
               == [(s.level, s.model, s.proposed, s.accepted)
                   for s in trace_local.steps])
    _report(11, "repeated bench runs byte-identical; in-process and remote-stub "
                "runs produce identical traces", identical and wire_ok)
