"""Generating functions, closed-form improvement factors, and the simulator."""
import warnings

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
    simulate_sd_ewif,
    simulate_vertical_ewif,
    swi,
    synthetic_pair,
    t_alpha_expectation,
    vertical_ewif,
)
from specdraft.cascade import CascadeConfig, GenerationTrace, KMatrix, csd_step
from specdraft.core import ConstructionError, ContractViolation, RandomSource
from specdraft.kernel import DecodeMode


def _enumerate_accept_lengths(alpha, k):
    """Brute-force distribution of emitted-token count over all 2^k accept
    patterns of independent Bernoulli(alpha) reviews."""
    probs = np.zeros(k + 2)
    for pattern in range(2 ** k):
        bits = [(pattern >> i) & 1 for i in range(k)]
        run = 0
        while run < k and bits[run]:
            run += 1
        p = 1.0
        for b in bits:
            p *= alpha if b else (1 - alpha)
        probs[run + 1] += p
    return probs


# ---------------------------------------------------------------------------
# generating function
# ---------------------------------------------------------------------------

def test_gen_fn_pgf_normalization():
    for alpha in (0.0, 0.3, 0.8, 0.99):
        for k in (1, 2, 5, 12):
            assert abs(gen_fn(alpha, k, 1.0) - 1.0) < 1e-12
            assert gen_fn(alpha, k, 0.0) == 0.0


def test_gen_fn_k1_coefficients():
    # phi(x) = x + 0.5(x^2 - x): coefficients (0, 0.5, 0.5)
    assert np.allclose(gen_fn_coeffs(0.5, 1), [0, 0.5, 0.5], atol=1e-15)
    assert np.allclose(gen_fn_coeffs(0.5, 1), _enumerate_accept_lengths(0.5, 1))


def test_gen_fn_coeffs_are_probabilities():
    for alpha in np.linspace(0.0, 0.95, 12):
        for k in range(1, 17):
            c = gen_fn_coeffs(alpha, k)
            assert np.all(c >= -1e-15)
            assert abs(c.sum() - 1.0) < 1e-12


def test_gen_fn_coeffs_match_polynomial():
    for alpha in (0.2, 0.6, 0.9):
        for k in (1, 3, 7):
            c = gen_fn_coeffs(alpha, k)
            for x in (0.0, 0.25, 1.0, 1.5):
                poly = float(np.polynomial.polynomial.polyval(x, c))
                assert abs(poly - gen_fn(alpha, k, x)) < 1e-12


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_sd_ewif_values():
    assert abs(sd_ewif(0.0, 0.1, 5) - 1 / 1.5) < 1e-12
    assert abs(sd_ewif(0.8, 0.05, 5) - 2.951424) < 1e-9
    assert abs(sd_ewif(1.0, 0.05, 5) - 6 / 1.25) < 1e-12


def test_sd_ewif_is_pgf_mean():
    # expected emitted tokens = phi'(1); check by central difference
    for alpha, c, k in [(0.3, 0.1, 2), (0.7, 0.02, 6)]:
        h = 1e-6
        deriv = (gen_fn(alpha, k, 1 + h) - gen_fn(alpha, k, 1 - h)) / (2 * h)
        assert abs(sd_ewif(alpha, c, k) - deriv / (c * k + 1)) < 1e-7


def test_vertical_ewif_degenerate_inner_draft():
    # alpha_prime = 0: the inner level contributes nothing but cost
    for alpha, k, n, c1, c2 in [(0.5, 3, 2, 0.1, 0.01), (0.9, 5, 4, 0.02, 0.0)]:
        got = vertical_ewif(alpha, 0.0, k, n, c1, c2)
        want = (1 - alpha ** (n + 1)) / ((1 - alpha) * (1 + n * c1 + n * k * c2))
        assert abs(got - want) < 1e-12


def test_vertical_ewif_monte_carlo_pinned():
    closed = vertical_ewif(0.8, 0.7, 4, 3, 0.05, 0.001)
    est = simulate_vertical_ewif(0.8, 0.7, 4, 3, 0.05, 0.001, 1_000_000,
                                 RandomSource(100))
    assert abs(est.mean - closed) / closed < 0.02


def test_simulated_vertical_at_alpha_one_passes_every_pooled_token():
    # log(alpha) is 0 at alpha = 1, so the leading-success count needs its own case
    closed = vertical_ewif(1.0, 0.7, 4, 3, 0.05, 0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = simulate_vertical_ewif(1.0, 0.7, 4, 3, 0.05, 0.001, 100_000, RandomSource(6))
    assert abs(est.mean - closed) <= 3 * est.ci95


@pytest.mark.parametrize("alpha,c,k", [(1.5, 0.05, 4), (-0.1, 0.05, 4), (0.8, -0.25, 4),
                                       (0.8, 0.05, 0), (0.8, float("nan"), 4),
                                       (float("nan"), 0.05, 4)])
def test_sd_closed_form_and_simulation_reject_what_they_cannot_price(alpha, c, k):
    with pytest.raises(ContractViolation):
        sd_ewif(alpha, c, k)
    with pytest.raises(ContractViolation):
        simulate_sd_ewif(alpha, c, k, 10, RandomSource(0))


@pytest.mark.parametrize("alpha,c1", [(1.5, 0.05), (-0.1, 0.05), (0.8, -0.25)])
def test_vertical_closed_form_and_simulation_reject_what_they_cannot_price(alpha, c1):
    with pytest.raises(ContractViolation):
        vertical_ewif(alpha, 0.7, 4, 3, c1, 0.001)
    with pytest.raises(ContractViolation):
        simulate_vertical_ewif(alpha, 0.7, 4, 3, c1, 0.001, 10, RandomSource(0))


@pytest.mark.parametrize("k,n,named", [(True, 3, "k True"), (4, 2.5, "n 2.5"), (0, 3, "k 0")])
def test_vertical_forms_refuse_a_k_or_n_that_is_not_a_whole_number_above_0(k, n, named):
    # the closed form took True as 1, and the simulation failed inside
    # numpy with a message that named no key
    for form in (lambda: vertical_ewif(0.8, 0.7, k, n, 0.05, 0.001),
                 lambda: simulate_vertical_ewif(0.8, 0.7, k, n, 0.05, 0.001, 10,
                                                RandomSource(0))):
        with pytest.raises(ContractViolation, match=named):
            form()


def test_vertical_forms_take_a_whole_float_k_and_n():
    # JSON may spell a count 2.0; the simulation's draw needed an int
    args = (0.8, 0.7, 4, 2, 0.05, 0.001)
    assert vertical_ewif(0.8, 0.7, 4.0, 2.0, 0.05, 0.001) == vertical_ewif(*args)
    assert (simulate_vertical_ewif(0.8, 0.7, 4.0, 2.0, 0.05, 0.001, 100, RandomSource(0))
            == simulate_vertical_ewif(*args, 100, RandomSource(0)))


@pytest.mark.parametrize("alpha_prime", [1.5, -0.5])
def test_vertical_forms_refuse_an_inner_rate_outside_0_1(alpha_prime):
    # the simulation drew with any alpha_prime, and a rate above 1 accepted every draft
    with pytest.raises(ContractViolation, match="alpha_prime in"):
        vertical_ewif(0.8, alpha_prime, 4, 3, 0.05, 0.001)
    with pytest.raises(ContractViolation, match="alpha_prime in"):
        simulate_vertical_ewif(0.8, alpha_prime, 4, 3, 0.05, 0.001, 10, RandomSource(0))


def test_vertical_at_alpha_and_alpha_prime_one_pools_every_draft():
    # every inner step emits k + 1 tokens and the top model accepts them all
    k, n, c1, c2 = 4, 3, 0.05, 0.001
    cost = 1 + n * c1 + n * k * c2
    closed = vertical_ewif(1.0, 1.0, k, n, c1, c2)
    assert abs(closed - (1 + n * (k + 1)) / cost) < 1e-12
    est = simulate_vertical_ewif(1.0, 1.0, k, n, c1, c2, 10_000, RandomSource(7))
    assert abs(est.mean - closed) <= 3 * est.ci95 + 1e-12


def test_phi_contraction_property():
    # phi_{a',k}(a) < a on a dense grid, including near-1 corners
    grid = list(np.linspace(0.05, 0.95, 19)) + [0.999]
    for a in grid:
        for ap in grid:
            for k in (1, 2, 4, 8):
                assert gen_fn(ap, k, a) < a


def test_horizontal_ewif_values():
    assert horizontal_ewif(AcceptanceProfile((), ())) == 1.0
    prof = AcceptanceProfile((0.9, 0.5), (0.05, 0.01))
    assert abs(horizontal_ewif(prof) - (1 + 0.9 + 0.45) / 1.06) < 1e-12
    # a measured rate of 1 passes every token of its stage
    assert abs(horizontal_ewif(AcceptanceProfile((1.0, 0.5), (0.05, 0.01)))
               - (1 + 1 + 0.5) / 1.06) < 1e-12
    # uniform profile degenerates to plain SD
    uni = AcceptanceProfile.uniform(0.7, 0.03, 5)
    assert abs(horizontal_ewif(uni) - sd_ewif(0.7, 0.03, 5)) < 1e-12


def test_horizontal_grad_closed_form_last_stage():
    prof = AcceptanceProfile((0.9, 0.6, 0.4), (0.05, 0.02, 0.01))
    want = (0.9 * 0.6) / (1 + 0.08)
    assert abs(horizontal_ewif_grad(prof, 3) - want) < 1e-12
    with pytest.raises(ContractViolation):
        horizontal_ewif_grad(prof, 4)


def test_horizontal_grad_nonincreasing_in_stage():
    for alpha in np.linspace(0.1, 0.9, 9):
        prof = AcceptanceProfile.uniform(float(alpha), 0.02, 6)
        grads = [horizontal_ewif_grad(prof, l) for l in range(1, 7)]
        assert all(a >= b - 1e-15 for a, b in zip(grads, grads[1:]))


def test_profile_validation():
    with pytest.raises(ContractViolation):
        AcceptanceProfile((0.5,), (0.1, 0.1))
    with pytest.raises(ContractViolation):
        AcceptanceProfile((1.5,), (0.1,))
    with pytest.raises(ContractViolation):
        AcceptanceProfile((0.5,), (-0.1,))


# ---------------------------------------------------------------------------
# the T_alpha operator
# ---------------------------------------------------------------------------

def test_t_alpha_monomial_case():
    for alpha in (0.2, 0.7):
        for j in (0, 1, 3, 6):
            coeffs = np.zeros(j + 1)
            coeffs[j] = 1.0
            want = (1 - alpha ** (j + 1)) / (1 - alpha)
            assert abs(t_alpha_expectation(coeffs, alpha) - want) < 1e-12


def test_t_alpha_linearity():
    rng = np.random.default_rng(0)
    f = rng.random(5)
    g = rng.random(5)
    alpha = 0.6
    lhs = t_alpha_expectation(0.3 * f + 0.7 * g, alpha)
    rhs = 0.3 * t_alpha_expectation(f, alpha) + 0.7 * t_alpha_expectation(g, alpha)
    assert abs(lhs - rhs) < 1e-12


def test_t_alpha_at_one_is_one_plus_the_mean():
    f = np.array([0.1, 0.2, 0.3, 0.4])
    assert abs(t_alpha_expectation(f, 1.0) - (1 + f @ np.arange(4))) < 1e-12


def test_t_alpha_ties_to_vertical_numerator():
    alpha, alpha_p, k, n = 0.8, 0.6, 3, 4
    phi = np.polynomial.polynomial.Polynomial(gen_fn_coeffs(alpha_p, k))
    phi_n = (phi ** n).coef
    got = t_alpha_expectation(phi_n, alpha)
    want = (1 - alpha * gen_fn(alpha_p, k, alpha) ** n) / (1 - alpha)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# simulator
# ---------------------------------------------------------------------------

def test_simulate_alpha_zero_is_exact():
    est = simulate_sd_ewif(0.0, 0.1, 4, 5000, RandomSource(1))
    assert abs(est.mean - 1 / (0.1 * 4 + 1)) < 1e-12
    assert est.ci95 < 1e-12  # every trial emits exactly the bonus token


def test_simulate_sd_close_to_closed_form():
    est = simulate_sd_ewif(0.8, 0.05, 5, 1_000_000, RandomSource(2))
    assert abs(est.mean - 2.951424) / 2.951424 < 0.01


def test_simulate_horizontal_close_to_closed_form():
    prof = AcceptanceProfile((0.9, 0.5), (0.05, 0.01))
    est = simulate_horizontal_ewif(prof, 1_000_000, RandomSource(3))
    closed = horizontal_ewif(prof)
    assert abs(est.mean - closed) / closed < 0.01


def test_comparison_table_methods():
    rows = [
        {"name": "a", "method": "sd", "alpha": 0.8, "c": 0.05, "k": 5},
        {"name": "b", "method": "horizontal",
         "alphas": [0.7, 0.6], "cs": [0.04, 0.01], "ks": [5, 3]},
        {"name": "c", "method": "vertical", "alpha": 0.8, "alpha_prime": 0.7,
         "k": 4, "n": 3, "c1": 0.05, "c2": 0.001},
    ]
    out = ewif_comparison_table(rows, 200_000, RandomSource(4))
    assert [r["name"] for r in out] == ["a", "b", "c"]
    for r in out:
        assert abs(r["ewif_simulated"] - r["ewif_closed"]) < 3 * r["ci95"] + 1e-9
    with pytest.raises(ContractViolation):
        ewif_comparison_table([{"method": "quantum"}], 10, RandomSource(0))


def test_comparison_table_deterministic():
    rows = [{"name": "a", "method": "sd", "alpha": 0.5, "c": 0.1, "k": 3}]
    a = ewif_comparison_table(rows, 10_000, RandomSource(9))
    b = ewif_comparison_table(rows, 10_000, RandomSource(9))
    assert a == b


# ---------------------------------------------------------------------------
# synthetic models
# ---------------------------------------------------------------------------

def test_synthetic_pair_alpha_one():
    target, draft = synthetic_pair([0.4, 0.3, 0.3], 1.0)
    assert np.array_equal(target.distribution([]), draft.distribution([]))


def test_synthetic_pair_exact_acceptance_rate():
    target, draft = synthetic_pair(np.full(4, 0.25), 0.75)
    a = float(np.minimum(target.distribution([]), draft.distribution([])).sum())
    assert abs(a - 0.75) < 1e-12


def test_synthetic_pair_infeasible_alpha():
    with pytest.raises(ConstructionError):
        synthetic_pair([0.3, 0.3, 0.4], 0.2)  # would need to move 0.8 from a 0.4 peak


def test_synthetic_pair_emitted_length_distribution():
    # emitted-length histogram of live SD steps vs the generating-function
    # coefficients, chi-square at p > 0.01
    alpha, k = 0.75, 4
    target, draft = synthetic_pair([0.4, 0.3, 0.2, 0.1], alpha)
    rng = RandomSource(77)
    counts = np.zeros(k + 2)
    steps = 20_000
    cfg = CascadeConfig(target, [draft], KMatrix([[k]]), DecodeMode.SAMPLING, k + 1, rng.seed)
    for _ in range(steps):
        emitted, _ = csd_step(cfg, [0], rng, GenerationTrace())
        counts[len(emitted)] += 1
    expected = gen_fn_coeffs(alpha, k) * steps
    keep = expected > 0
    _, p_value = stats.chisquare(counts[keep], expected[keep])
    assert p_value > 0.01


# ---------------------------------------------------------------------------
# SWI
# ---------------------------------------------------------------------------

def _trace(target, calls, weights, tokens):
    t = GenerationTrace(target)
    t.calls_per_model = calls
    t.cost_weights = weights
    t.tokens_emitted = tokens
    return t


def test_swi_autoregressive_is_one():
    t = _trace("t", {"t": 40}, {"t": 2.0}, 40)
    assert swi(t, {"t": 2.0}) == 1.0


def test_swi_free_drafts():
    t = _trace("t", {"t": 10, "d": 99}, {"t": 1.0, "d": 0.0}, 30)
    assert swi(t, {"t": 1.0, "d": 0.0}) == 3.0


def test_swi_refuses_a_run_that_costs_nothing():
    t = _trace("t", {"t": 10, "d": 99}, {"t": 0.0, "d": 0.0}, 30)
    with pytest.raises(ContractViolation, match="cost"):
        swi(t, {"t": 0.0, "d": 0.0})


def test_swi_unpriced_model():
    t = _trace("t", {"t": 10, "d": 5}, {"t": 1.0, "d": 0.1}, 30)
    with pytest.raises(ContractViolation):
        swi(t, {"t": 1.0})
