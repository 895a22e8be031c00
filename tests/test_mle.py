"""Likelihood fitting: hand-checked likelihood values, boundary
handling, parameter recovery on synthetic data, and order selection.

Oracles: the density evaluated directly, datasets drawn from known
parameters through the inverse CDF, a central-difference Hessian of the
log-likelihood for the observed-information standard errors, the KKT
conditions of the constrained maximum, a scipy SLSQP solve of the same
concave problem, and coverage counts.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from conftest import SIG_BC3, THETA_BC3
from fdrdist import (
    InputError,
    ThetaParams,
    density,
    fit,
    log_likelihood,
    select_order,
    validate_theta,
)
from fdrdist import mle
from fdrdist.mle import _snap_boundaries
from fdrdist.psi_dist import _quantile_array


def _draws(theta, n, seed, replicates=1):
    """Row r: n uniforms from Generator(Philox(key=(seed << 64) | r)), put
    through the inverse CDF, so the datasets do not depend on the
    simulation engine's stream layout."""
    u = np.stack([np.random.Generator(np.random.Philox(key=(seed << 64) | r)).random(n)
                  for r in range(replicates)])
    out = _quantile_array(u, theta)
    return out[0] if replicates == 1 else out


# ------------------------------------------------------------- likelihood

def test_loglik_is_zero_under_uniform_model():
    rng = np.random.default_rng(2)
    assert log_likelihood(rng.uniform(size=50), ThetaParams.uniform()) == 0.0


def test_loglik_matches_direct_density_sum():
    p = np.array([0.9, 0.5, 0.01, 1e-4, 1.0])
    expected = float(np.sum(np.log(density(p, THETA_BC3))))
    assert log_likelihood(p, THETA_BC3) == pytest.approx(expected, rel=1e-13)


def test_loglik_single_observation():
    assert log_likelihood([0.5], THETA_BC3) == pytest.approx(
        math.log(float(density(0.5, THETA_BC3))), rel=1e-14)
    # at p = 1 the density is exactly theta0
    assert log_likelihood([1.0], THETA_BC3) == pytest.approx(
        math.log(THETA_BC3.theta0), rel=1e-14)


def test_loglik_minus_inf_outside_support():
    # a nonpositive density can only happen for invalid parameters;
    # the function reports -inf rather than raising
    assert log_likelihood([0.9], ThetaParams(1, (1.5,))) == -math.inf


def test_loglik_input_errors():
    with pytest.raises(InputError, match="index 1"):
        log_likelihood([0.5, 0.0, 0.2], THETA_BC3)
    with pytest.raises(InputError, match="not finite"):
        log_likelihood([0.5, math.nan], THETA_BC3)
    with pytest.raises(InputError):
        log_likelihood([0.5, 1.2], THETA_BC3)
    with pytest.raises(InputError, match="no p-values"):
        log_likelihood([], THETA_BC3)
    with pytest.raises(InputError, match="flat vector"):
        log_likelihood([[0.5, 0.2]], THETA_BC3)


# ---------------------------------------------------------------- fitting

def test_fit_input_errors():
    with pytest.raises(InputError, match="order"):
        fit([0.5] * 20, 0)
    with pytest.raises(InputError, match="at least"):
        fit([0.5] * 7, 3)


def test_fit_is_deterministic_and_permutation_invariant():
    p = _draws(THETA_BC3, 400, seed=19)
    a = fit(p, 2)
    b = fit(p, 2)
    assert a.theta_hat == b.theta_hat and a.loglik == b.loglik
    shuffled = np.random.default_rng(1).permutation(p)
    c = fit(shuffled, 2)
    assert c.theta_hat == a.theta_hat
    assert c.loglik == a.loglik


def test_fit_result_fields():
    p = _draws(THETA_BC3, 600, seed=3)
    res = fit(p, 2)
    assert res.theta_hat.order == 2
    assert res.n_obs == 600
    assert res.converged is True
    assert res.iterations > 0
    assert res.pi0_hat == res.theta_hat.theta0
    assert res.trace == ()
    assert len(res.boundary_flags) == 2
    if res.std_errs is not None:
        assert len(res.std_errs) == 2 and all(s > 0 for s in res.std_errs)


def test_fit_snaps_lower_boundary():
    # data concentrated near p = 1 is best explained by the uniform
    # corner of the order-1 box: theta1 pinned at 0, pi0 at 1
    p = np.linspace(0.9, 0.99999, 2000)
    res = fit(p, 1)
    assert res.theta_hat.coeffs == (0.0,)
    assert res.boundary_flags == (True,)
    assert res.loglik == 0.0
    assert res.pi0_hat == 1.0
    assert res.converged


def test_fit_snaps_upper_boundary():
    # strongly left-concentrated data drives theta1 to its box edge 1
    p = np.exp(-np.linspace(3.0, 30.0, 2000))
    res = fit(p, 1)
    assert res.theta_hat.coeffs == (1.0,)
    assert res.boundary_flags == (True,)
    assert res.pi0_hat == 0.0


def test_fit_recovers_known_parameters():
    p = _draws(THETA_BC3, 3226, seed=7)
    res = fit(p, 3)
    assert res.std_errs is not None
    for est, true, se in zip(res.theta_hat.coeffs, THETA_BC3.coeffs,
                             res.std_errs):
        assert abs(est - true) <= 3 * se
    # observed-information errors agree with the reference spreads for
    # this sample size to within a modest factor
    for se, ref in zip(res.std_errs, SIG_BC3):
        assert abs(se - ref) / ref < 0.25


def test_fd_standard_errors_cover_truth():
    # 20 independent datasets from a known order-2 model: the truth
    # should sit within 3 estimated errors nearly every time
    true = ThetaParams(2, (0.15, 0.04))
    rows = _draws(true, 1500, seed=101, replicates=20)
    hits = 0
    for row in rows:
        res = fit(row, 2)
        if res.std_errs is None:
            continue
        if all(abs(e - t) <= 3 * s for e, t, s in
               zip(res.theta_hat.coeffs, true.coeffs, res.std_errs)):
            hits += 1
    assert hits >= 17


def _score(p, theta):
    """Gradient of the log-likelihood: sum over points of v / f, with
    v_j = x^j - j! and f the density."""
    x = -np.log(np.asarray(p))
    v = np.stack([x ** j - math.factorial(j)
                  for j in range(1, theta.order + 1)], axis=1)
    return (v / density(np.asarray(p), theta)[:, None]).sum(axis=0)


def test_std_errs_match_central_difference_hessian():
    p = _draws(THETA_BC3, 3226, seed=1001)
    res = fit(p, 3)
    assert res.boundary_flags == (False, False, False)
    est = np.array(res.theta_hat.coeffs)
    h = 1e-2 * np.array(res.std_errs)

    def nll(c):
        return -log_likelihood(p, ThetaParams(3, tuple(c)))

    hess = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            ei, ej = np.eye(3)[i] * h[i], np.eye(3)[j] * h[j]
            hess[i, j] = (nll(est + ei + ej) - nll(est + ei - ej)
                          - nll(est - ei + ej) + nll(est - ei - ej)) / (4 * h[i] * h[j])
    oracle = np.sqrt(np.diag(np.linalg.inv(hess)))
    np.testing.assert_allclose(res.std_errs, oracle, rtol=1e-4)


@pytest.mark.parametrize("p, flags", [
    (_draws(THETA_BC3, 3226, seed=1001), (False, False, False)),
    (_draws(THETA_BC3, 3226, seed=1000), (False, False, True, False)),
    (_draws(THETA_BC3, 3226, seed=1002), (False, False, False, True)),
    (np.linspace(0.9, 0.99999, 2000), (True,)),          # theta_1 = 0
    (np.exp(-np.linspace(3.0, 30.0, 2000)), (True,)),   # theta_1 = 1
    # theta_0 = 0 with theta_2 free and theta_3..6 at zero
    (np.exp(-np.random.default_rng(5).gamma(2.0, size=500)),
     (True, False, True, True, True, True)),
])
def test_fit_satisfies_kkt_conditions(p, flags):
    # in the weights u_j = j! theta_j the region is the simplex u >= 0,
    # sum(u) <= 1, so at the maximum the score in u equals one multiplier
    # mu >= 0 on every positive weight and is at most mu on every zero
    # weight, with mu = 0 while theta_0 = 1 - sum(u) > 0; equality is
    # measured as the log-likelihood change over one standard error
    res = fit(p, len(flags))
    assert res.boundary_flags == flags
    fact = np.array([math.factorial(j) for j in range(1, len(flags) + 1)])
    score = _score(p, res.theta_hat) / fact
    se = np.array(res.std_errs) * fact
    positive = np.array(res.theta_hat.coeffs) > 1e-8
    mu = score[positive].mean() if res.theta_hat.theta0 == 0.0 else 0.0
    assert mu >= 0.0
    assert np.all(np.abs(score - mu)[positive] * se[positive] < 1e-3)
    assert np.all(score[~positive] < mu)


def test_snap_onto_full_simplex_keeps_theta0_nonnegative():
    # an order-6 optimum with sum(u) = 1 seen in a fuzzed fit: snapping
    # theta_1 onto its bound in theta once left theta_0 = -2.2e-16, a
    # negative density at p = 1
    fact = [math.factorial(j) for j in range(1, 7)]
    raw = (0.5579312537389811, 0.20026634464055168, 0.0, 0.0,
           0.00016625771251640919, 2.99793492749254e-05)
    u = [f * c for f, c in zip(fact, raw)]
    coeffs, flags = _snap_boundaries(u, 6)
    assert flags == (True, False, True, True, False, False)
    theta = ThetaParams(6, coeffs)
    assert 0.0 <= theta.theta0 < 1e-15
    assert validate_theta(theta).valid
    assert coeffs[1:] == tuple(w / f for w, f in zip(u[1:], fact[1:]))


_NEAR_FACE = st.floats(min_value=-1e-9, max_value=1e-9)


@st.composite
def _weights_near_faces(draw):
    """(u, order): weights on or within 1e-9 of the faces u_i = 0 and
    sum(u) = 1, as the active-set solve hands them to the snap (the top
    weight of an order >= 2 stays at or above its bound I! * tiny)."""
    order = draw(st.integers(min_value=1, max_value=6))
    u = np.array(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0),
                               min_size=order, max_size=order)))
    at_zero = np.array(draw(st.lists(st.booleans(), min_size=order, max_size=order)))
    if not at_zero.all():
        total = 1.0 if draw(st.booleans()) else draw(st.floats(min_value=0.0, max_value=1.0))
        u *= (total + draw(_NEAR_FACE)) / u[~at_zero].sum()
    u[at_zero] = [draw(_NEAR_FACE) for _ in range(int(at_zero.sum()))]
    if order > 1:
        u[-1] = max(u[-1], math.factorial(order) * np.finfo(float).tiny)
    return u, order


@settings(max_examples=500)
@given(_weights_near_faces())
# u_5 / 5! * 5! rounds one ulp above u_5 = 1 - u_6, which with u_6 < 1/2
# puts the sum one ulp above 1 unless the snap steps theta_5 down
@example(([0.0, 0.0, 0.0, 0.0, 0.9844941242651251, 0.015505875734874996], 6))
def test_snap_near_faces_keeps_theta0_nonnegative(case):
    u, order = case
    coeffs, flags = _snap_boundaries(u, order)
    theta = ThetaParams(order, coeffs)
    assert theta.theta0 >= 0.0
    assert validate_theta(theta).valid


@pytest.mark.parametrize("order", range(2, 7))
def test_fit_uniform_data_keeps_top_coefficient_positive(order):
    p = np.random.default_rng(4).uniform(size=1000)
    res = fit(p, order)
    assert validate_theta(res.theta_hat).valid
    assert res.theta_hat.coeffs[-1] > 0.0
    assert res.boundary_flags[-1]


def _slsqp_loglik(p, order):
    """Maximum log-likelihood by one SLSQP solve over the simplex in
    u_j = j! theta_j (analytic gradient, ftol 1e-12), the scipy solve
    ``fit`` used before."""
    x = -np.log(np.asarray(p, dtype=float))
    fact = np.array([math.factorial(j) for j in range(1, order + 1)], dtype=float)
    m = np.stack([x ** j - math.factorial(j) for j in range(1, order + 1)],
                 axis=1) / fact

    def objective(u):
        f = 1.0 + m @ u
        if np.any(f <= 0.0):
            return math.inf, np.zeros(order)
        return -float(np.log(f).mean()), -(m / f[:, None]).mean(axis=0)

    bounds = [(0.0, None)] * order
    if order > 1:
        bounds[-1] = (fact[-1] * np.finfo(float).tiny, None)
    res = optimize.minimize(
        objective, np.full(order, 0.1 / order), jac=True, method="SLSQP",
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": lambda u: 1.0 - u.sum(),
                      "jac": lambda u: -np.ones(order)}],
        options=dict(ftol=1e-12, maxiter=500))
    assert res.success, res.message
    return float(np.log(1.0 + m @ res.x).sum())


def _fuzzed_pvalues(rng, kind, n):
    if kind == 0:                                   # uniform
        p = rng.uniform(size=n)
    elif kind == 1:                                 # -log p gamma
        p = np.exp(-rng.gamma(rng.uniform(0.5, 3.0), size=n))
    elif kind == 2:                                 # null/signal mixture
        k = rng.binomial(n, rng.uniform(0.05, 0.6))
        p = np.concatenate([rng.uniform(size=n - k),
                            np.exp(-rng.gamma(rng.uniform(1.0, 4.0), size=k))])
    elif kind == 3:                                 # ties at p = 1
        p = rng.uniform(size=n)
        p[: max(1, n // 5)] = 1.0
    else:                                           # breast-cancer law
        p = _draws(THETA_BC3, n, seed=int(rng.integers(2**32)))
    return np.clip(p, 1e-300, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_fit_reaches_slsqp_maximum(seed):
    # ten fits per seed: the five data kinds at two sizes from 12 to 3226,
    # orders 1-6 in turn
    rng = np.random.default_rng(seed)
    for i in range(10):
        order = 1 + (seed + i) % 6
        n = int(np.exp(rng.uniform(math.log(order + 12), math.log(3226))))
        p = _fuzzed_pvalues(rng, i % 5, n)
        res = fit(p, order)
        oracle = _slsqp_loglik(p, order)
        assert res.loglik >= oracle - 1e-9 * max(1.0, abs(oracle))
        assert res.iterations <= 100


def test_select_order_matches_slsqp_selection():
    # the selection rule applied to the SLSQP maxima picks the same order
    for seed in range(12):
        p = _draws(THETA_BC3, 3226, seed=5000 + seed)
        res = select_order(p, max_order=6)
        chosen, prev = 1, _slsqp_loglik(p, 1)
        for order in range(2, 7):
            cur = _slsqp_loglik(p, order)
            if 2.0 * (cur - prev) < 3.84 or cur - prev < 1e-4:
                break
            chosen, prev = order, cur
        assert res.theta_hat.order == chosen


# --------------------------------------------------------- order selection

def test_select_order_finds_cubic_model():
    p = _draws(THETA_BC3, 3226, seed=7)
    res = select_order(p, max_order=5)
    assert res.theta_hat.order == 3
    orders = [f.theta_hat.order for f in res.trace]
    assert orders == list(range(1, len(orders) + 1))
    # every accepted step improved the likelihood by the gate amount
    for prev, nxt in zip(res.trace, res.trace[1:]):
        if nxt.theta_hat.order <= res.theta_hat.order:
            assert nxt.loglik - prev.loglik >= 1.9


def test_select_order_stops_at_one_on_null_data():
    p = np.random.default_rng(11).uniform(size=2000)
    res = select_order(p, max_order=4)
    assert res.theta_hat.order == 1
    assert res.theta_hat.coeffs[0] < 0.05
    assert len(res.trace) <= 2


def test_select_order_validation():
    with pytest.raises(InputError, match="max_order"):
        select_order([0.5] * 100, max_order=0)


# ------------------------------------------- branches of the active-set solve

def _steep_pvalues(seed):
    """p = exp(-s E), E standard exponential, s ~ U(1, 40), n in [100, 200):
    samples whose solve reaches the faces of the simplex."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 40.0)
    n = int(rng.integers(100, 200))
    return np.exp(-s * rng.standard_exponential(n))


def _count_solver_branches(monkeypatch):
    """Counts, over the fits that follow, of the releases of sum(u) <= 1
    and of the objective evaluations (one to start, one per line-search
    trial)."""
    seen = {"release": 0, "evaluations": 0}
    last = {}
    newton_step, mean_loglik = mle._newton_step, mle._mean_loglik

    def counting_step(g, h, free, sum_active):
        # a release solves again at the same gradient without the constraint
        if last.get("g") is g and last["sum_active"] and not sum_active:
            seen["release"] += 1
        last.update(g=g, sum_active=sum_active)
        return newton_step(g, h, free, sum_active)

    def counting_loglik(m, u):
        seen["evaluations"] += 1
        return mean_loglik(m, u)

    monkeypatch.setattr(mle, "_newton_step", counting_step)
    monkeypatch.setattr(mle, "_mean_loglik", counting_loglik)
    return seen


@pytest.mark.parametrize("seed, order", [(3, 1), (25, 1), (44, 1)])
def test_fit_releases_the_sum_constraint(monkeypatch, seed, order):
    p = _steep_pvalues(seed)
    seen = _count_solver_branches(monkeypatch)
    res = fit(p, order)
    assert seen["release"] >= 1
    oracle = _slsqp_loglik(p, order)
    assert res.loglik >= oracle - 1e-9 * max(1.0, abs(oracle))


@pytest.mark.parametrize("seed, order", [(2, 3), (5, 3), (25, 2)])
def test_fit_halves_the_step(monkeypatch, seed, order):
    p = _steep_pvalues(seed)
    seen = _count_solver_branches(monkeypatch)
    res = fit(p, order)
    # without a halving every Newton step is one trial
    assert seen["evaluations"] > 1 + res.iterations
    oracle = _slsqp_loglik(p, order)
    assert res.loglik >= oracle - 1e-9 * max(1.0, abs(oracle))
