"""Expected-walltime analysis: generating functions, closed-form improvement
factors and their derivatives, a Bernoulli-acceptance Monte Carlo simulator,
and a synthetic model factory that realizes a chosen acceptance rate in live
models.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    ConstructionError,
    ContextConditionedModel,
    ContractViolation,
    RandomSource,
    Vocab,
    integer,
    normalize,
    reading,
)

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class AcceptanceProfile:
    """Per-position expected acceptance rates and per-position draft costs."""

    alphas: Tuple[float, ...]
    costs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) != len(self.costs):
            raise ContractViolation("alphas and costs length mismatch")
        for a in self.alphas:
            if not 0.0 <= a < 1.0:
                raise ContractViolation(f"acceptance rate {a} outside [0, 1)")
        for c in self.costs:
            if c < 0.0:
                raise ContractViolation(f"cost {c} must be non-negative")

    @property
    def k(self) -> int:
        return len(self.alphas)

    @classmethod
    def uniform(cls, alpha: float, cost: float, k: int) -> "AcceptanceProfile":
        return cls((alpha,) * k, (cost,) * k)


@dataclass(frozen=True)
class EwifEstimate:
    mean: float
    ci95: float


def gen_fn(alpha: float, k: int, x: float) -> float:
    """Probability generating function of tokens emitted per review step.

    Evaluated in the polynomial form x + (x-1) * sum_{i=1..k} alpha^i x^i,
    which also covers the removable singularity at alpha*x = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractViolation("alpha must be in [0, 1]")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    i = np.arange(1, k + 1)
    return float(x + (x - 1.0) * np.sum(alpha ** i * x ** i))


def gen_fn_coeffs(alpha: float, k: int) -> np.ndarray:
    """Coefficient j = probability of emitting exactly j tokens, j = 0..k+1."""
    c = np.zeros(k + 2)
    for i in range(k):
        c[i + 1] = alpha ** i - alpha ** (i + 1)
    c[k + 1] = alpha ** k
    return c


def sd_ewif(alpha: float, c: float, k: int) -> float:
    """Expected walltime improvement of plain speculative decoding."""
    if not (0.0 <= alpha <= 1.0 and c >= 0 and k >= 1):
        raise ContractViolation("sd needs alpha in [0, 1], c >= 0 and k >= 1")
    if alpha >= 1.0:
        return (k + 1) / (c * k + 1)  # analytic limit at alpha -> 1
    return (1.0 - alpha ** (k + 1)) / ((1.0 - alpha) * (c * k + 1.0))


def t_alpha_expectation(coeffs: Sequence[float], alpha: float) -> float:
    """(1 - alpha*f(alpha)) / (1 - alpha) for a probability polynomial f:
    the expected accepted-token count of a follow-up review at rate alpha."""
    c = np.asarray(coeffs, dtype=np.float64)
    if alpha >= 1.0:
        # limit: f(1) + f'(1) = 1 + mean of f
        return 1.0 + float(np.arange(len(c)) @ c)
    f = float(np.polynomial.polynomial.polyval(alpha, c))
    return (1.0 - alpha * f) / (1.0 - alpha)


def vertical_ewif(alpha: float, alpha_prime: float, k: int, n: int,
                  c1: float, c2: float) -> float:
    """Improvement factor of the two-level recursive cascade: the inner pair
    runs n review steps at rate alpha_prime with budget k, and the top model
    reviews the pooled draft at rate alpha."""
    if not (0.0 <= alpha <= 1.0 and k >= 1 and n >= 1 and c1 >= 0 and c2 >= 0):
        raise ContractViolation("vertical needs alpha in [0, 1], k, n >= 1 and c1, c2 >= 0")
    cost = 1.0 + n * c1 + n * k * c2
    phi_n = gen_fn(alpha_prime, k, alpha) ** n
    if alpha >= 1.0:
        # limit of (1 - a*phi^n(a))/(1 - a): 1 + n * phi'(1)
        return (1.0 + n * (1.0 - alpha_prime ** (k + 1)) / (1.0 - alpha_prime)) / cost
    return (1.0 - alpha * phi_n) / ((1.0 - alpha) * cost)


def horizontal_ewif(profile: AcceptanceProfile) -> float:
    """sum of prefix acceptance products over the per-stage cost total."""
    total = 1.0
    prod = 1.0
    for a in profile.alphas:
        prod *= a
        total += prod
    return total / (1.0 + sum(profile.costs))


def horizontal_ewif_grad(profile: AcceptanceProfile, l: int) -> float:
    """d(improvement)/d(alpha_l), stage index l in 1..k."""
    k = profile.k
    if not 1 <= l <= k:
        raise ContractViolation(f"stage index {l} outside 1..{k}")
    num = 0.0
    for i in range(l, k + 1):
        prod = 1.0
        for j in range(1, i + 1):
            if j != l:
                prod *= profile.alphas[j - 1]
        num += prod
    return num / (1.0 + sum(profile.costs))


# ---------------------------------------------------------------------------
# Monte Carlo simulator (i.i.d. Bernoulli acceptance)
# ---------------------------------------------------------------------------

def _leading_run(accepts: np.ndarray) -> np.ndarray:
    """Length of the initial all-True run along the last axis."""
    return np.cumprod(accepts, axis=-1).sum(axis=-1)


def _estimate(tokens: np.ndarray, cost: float) -> EwifEstimate:
    vals = tokens / cost
    n = len(vals)
    ci = Z95 * float(vals.std(ddof=1)) / float(np.sqrt(n)) if n > 1 else 0.0
    return EwifEstimate(float(vals.mean()), ci)


def simulate_sd_ewif(alpha: float, c: float, k: int, trials: int,
                     rng: RandomSource) -> EwifEstimate:
    if not (0.0 <= alpha <= 1.0 and c >= 0 and k >= 1 and trials >= 1):
        raise ContractViolation("sd needs alpha in [0, 1], c >= 0, k >= 1 and trials >= 1")
    acc = rng.uniforms((trials, k)) < alpha
    tokens = _leading_run(acc) + 1.0
    return _estimate(tokens, c * k + 1.0)


def simulate_horizontal_ewif(profile: AcceptanceProfile, trials: int,
                             rng: RandomSource) -> EwifEstimate:
    if trials < 1:
        raise ContractViolation("trials must be >= 1")
    alphas = np.asarray(profile.alphas)
    if profile.k == 0:
        tokens = np.ones(trials)
    else:
        acc = rng.uniforms((trials, profile.k)) < alphas[None, :]
        tokens = _leading_run(acc) + 1.0
    return _estimate(tokens, 1.0 + sum(profile.costs))


def simulate_vertical_ewif(alpha: float, alpha_prime: float, k: int, n: int,
                           c1: float, c2: float, trials: int,
                           rng: RandomSource) -> EwifEstimate:
    """Literal reading of the two-level cascade cost model: every outer
    review prices one target run plus n inner-reviewer runs plus n*k base
    runs, regardless of early rejections inside the inner steps."""
    if not (0.0 <= alpha <= 1.0 and k >= 1 and n >= 1 and c1 >= 0 and c2 >= 0 and trials >= 1):
        raise ContractViolation("vertical needs alpha in [0, 1], k, n, trials >= 1, c1, c2 >= 0")
    inner = rng.uniforms((trials, n, k)) < alpha_prime
    drafted = _leading_run(inner).sum(axis=-1) + n  # tokens pooled for review
    if alpha <= 0.0:
        run = np.zeros(trials)
    elif alpha >= 1.0:  # every pooled token passes
        run = drafted
    else:
        # leading-success count of an unbounded Bernoulli(alpha) sequence
        run = np.floor(np.log(rng.uniforms(trials)) / np.log(alpha))
    tokens = np.minimum(run, drafted) + 1.0
    return _estimate(tokens, 1.0 + n * c1 + n * k * c2)


def ewif_comparison_table(rows: Sequence[dict], trials: int,
                          rng: RandomSource) -> List[dict]:
    """Closed-form vs simulated improvement for a list of run descriptions.

    Each row is either {"name", "method": "sd", "alpha", "c", "k"} or
    {"name", "method": "horizontal", "alphas": [...], "cs": [...],
    "ks": [...]} where stage i contributes ks[i] positions at rate alphas[i]
    and cost cs[i].  This is the machinery behind externally-supplied
    acceptance-rate comparisons; the caller provides the rates and costs.
    A row that does not fit is a ContractViolation naming its index.
    """
    out = []
    streams = rng.split(len(rows))
    for i, (row, sub) in enumerate(zip(rows, streams)):
        with reading(f"row {i}", ContractViolation):
            method = row["method"]
            if method == "sd":
                closed = sd_ewif(row["alpha"], row["c"], row["k"])
                est = simulate_sd_ewif(row["alpha"], row["c"], row["k"], trials, sub)
            elif method == "horizontal":
                stages = [(a, c, integer(ki, "ks entry", 1))
                          for a, c, ki in zip(row["alphas"], row["cs"], row["ks"], strict=True)]
                profile = AcceptanceProfile(tuple(a for a, _, ki in stages for _ in range(ki)),
                                            tuple(c for _, c, ki in stages for _ in range(ki)))
                closed = horizontal_ewif(profile)
                est = simulate_horizontal_ewif(profile, trials, sub)
            elif method == "vertical":
                args = (row["alpha"], row["alpha_prime"], row["k"], row["n"],
                        row["c1"], row["c2"])
                closed = vertical_ewif(*args)
                est = simulate_vertical_ewif(*args, trials, sub)
            else:
                raise ContractViolation(f"unknown method {method!r}")
        out.append({
            "name": row.get("name", method),
            "method": method,
            "ewif_closed": closed,
            "ewif_simulated": est.mean,
            "ci95": est.ci95,
            "trials": trials,
        })
    return out


# ---------------------------------------------------------------------------
# synthetic live models
# ---------------------------------------------------------------------------

class ConstantModel(ContextConditionedModel):
    """Context-free model: the same distribution at every position."""

    def __init__(self, dist, vocab: Optional[Vocab] = None,
                 cost_weight: float = 1.0, descriptor: str = "constant"):
        self._dist = normalize(dist)
        if vocab is None:
            vocab = Vocab(tuple(f"<{i}>" for i in range(len(self._dist))))
        if vocab.size != len(self._dist):
            raise ConstructionError("distribution size does not match vocabulary")
        self._dist.flags.writeable = False
        super().__init__(vocab, cost_weight, descriptor)

    def distribution(self, context) -> np.ndarray:
        return self._dist


def synthetic_pair(base, alpha: float, vocab: Optional[Vocab] = None,
                   target_cost: float = 1.0, draft_cost: float = 0.05):
    """Target/draft pair of context-free models with per-token acceptance
    rate exactly `alpha`: the draft moves (1 - alpha) probability mass from
    the target's argmax onto its argmin."""
    p = normalize(base)
    if not 0.0 < alpha <= 1.0:
        raise ContractViolation("alpha must be in (0, 1]")
    if len(p) < 2:
        raise ConstructionError("need a vocabulary of size >= 2")
    move = 1.0 - alpha
    donor = int(np.argmax(p))
    recipient = int(np.argmin(p))
    if recipient == donor:  # flat base: any other token will do
        recipient = (donor + 1) % len(p)
    if p[donor] < move:
        raise ConstructionError(
            f"alpha={alpha} infeasible: largest mass {p[donor]:.6f} < {move:.6f}"
        )
    q = p.copy()
    q[donor] -= move
    q[recipient] += move
    target = ConstantModel(p, vocab, cost_weight=target_cost, descriptor="synthetic-target")
    draft = ConstantModel(q, target.vocab, cost_weight=draft_cost, descriptor="synthetic-draft")
    return target, draft


def swi(trace, cost_model: Dict[str, float]) -> float:
    """Standardized walltime improvement of a traced run: cost of generating
    the same token count autoregressively with the target alone, over the
    run's cost under the given per-run price map."""
    for name in [trace.target_descriptor, *trace.calls_per_model]:
        if name not in cost_model:
            raise ContractViolation(f"model {name!r} has no price in the cost model")
    run_cost = sum(n * cost_model[m] for m, n in trace.calls_per_model.items())
    if not run_cost > 0:
        raise ContractViolation(f"run cost {run_cost!r} is not positive")
    baseline = trace.tokens_emitted * cost_model[trace.target_descriptor]
    return baseline / run_cost
