"""Dependent-count models: Gumbel copula Bonferroni pmf and the latent
fair-coin mixture.

Oracles: the binomial reduction at gamma = 1, a brute-force n = 3
orthant calculation by inclusion-exclusion, the inclusion-exclusion sum
over the copula diagonal evaluated exactly in integers (mp_oracles), the
mean invariance E[B] = n Psi(alpha/n) for every gamma, and exact mixture
structure for the latent model.
"""
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SIG_BC3, THETA_BC3
from mp_oracles import copula_pmf_inclusion_exclusion
from fdrdist import dependence
from fdrdist import (
    ConstraintError,
    GumbelCopula,
    Independent,
    InputError,
    Latent,
    NumericError,
    TestingSetup,
    ThetaParams,
    bh_pmf,
    bonferroni_pmf,
    bonferroni_pmf_copula,
    cdf,
    gumbel_diagonal,
    latent_bh_pmf,
    latent_pvalue_correlation,
    moment,
    perturbed_pair,
    positive_stable,
    random_theta,
)

HALF_SIG = tuple(0.5 * s for s in SIG_BC3)


# ------------------------------------------------------------ spec objects

def test_dependence_spec_types():
    assert Independent() == Independent()
    assert GumbelCopula(1.0).gamma == 1.0
    with pytest.raises(ConstraintError):
        GumbelCopula(0.999)
    with pytest.raises(ConstraintError):
        GumbelCopula(float("nan"))
    lat = Latent((0.1, np.float64(0.2)))
    assert lat.eps == (0.1, 0.2)
    assert all(isinstance(e, float) for e in lat.eps)
    with pytest.raises(InputError):
        Latent((0.1, float("inf")))


def test_perturbed_pair_structure():
    minus, plus = perturbed_pair(THETA_BC3, HALF_SIG)
    for i in range(3):
        assert minus.coeffs[i] == THETA_BC3.coeffs[i] - HALF_SIG[i]
        assert plus.coeffs[i] == THETA_BC3.coeffs[i] + HALF_SIG[i]
    # theta_0 re-derives from the perturbed coefficients
    assert minus.theta0 > THETA_BC3.theta0 > plus.theta0


def test_perturbed_pair_errors():
    with pytest.raises(InputError):
        perturbed_pair(THETA_BC3, (0.1, 0.1))
    # eps pushing theta_3 - eps_3 negative leaves the valid region
    with pytest.raises(ConstraintError, match="theta - eps"):
        perturbed_pair(THETA_BC3, (0.0, 0.0, 0.03))


# ----------------------------------------------------------- diagonal map

def test_gumbel_diagonal_values():
    p = 0.013
    assert gumbel_diagonal(p, 4, 1.0) == pytest.approx(p**4, rel=1e-12)
    assert gumbel_diagonal(p, 9, 2.0) == pytest.approx(p**3, rel=1e-12)
    assert gumbel_diagonal(p, 1, 7.3) == pytest.approx(p, rel=1e-12)
    # stronger dependence pulls the diagonal toward the comonotone bound p*
    assert gumbel_diagonal(p, 5, 5000.0) == pytest.approx(p, rel=1e-2)
    assert abs(gumbel_diagonal(p, 5, 50.0) - p) > abs(gumbel_diagonal(p, 5, 5000.0) - p)
    vals = [gumbel_diagonal(p, m, 1.4) for m in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gumbel_diagonal_domain():
    with pytest.raises(InputError):
        gumbel_diagonal(0.0, 2, 1.5)
    with pytest.raises(InputError):
        gumbel_diagonal(1.0, 2, 1.5)
    for m in (0, 2.5, math.nan, math.inf):
        with pytest.raises(InputError, match="m must"):
            gumbel_diagonal(0.5, m, 1.5)
    with pytest.raises(ConstraintError):
        gumbel_diagonal(0.5, 2, 0.5)


# ------------------------------------------------------------- copula pmf

@pytest.mark.parametrize("theta", [ThetaParams.uniform(), THETA_BC3])
def test_copula_gamma_one_is_binomial(theta):
    setup = TestingSetup(50, 0.05, theta)
    dep = bonferroni_pmf_copula(setup, 1.0, k_max=50)
    ind = bonferroni_pmf(setup, tail_tol=1e-15)
    for k in range(ind.k_max + 1):
        if ind.prob(k) > 1e-290:
            assert dep.prob(k) == pytest.approx(ind.prob(k), rel=1e-8)


def _orthant_pmf(p_star, gamma, n=3):
    """Exchangeable inclusion-exclusion over the copula diagonal."""
    def diag(m):
        return math.exp(m ** (1.0 / gamma) * math.log(p_star)) if m else 1.0

    out = []
    for j in range(n + 1):
        s = sum(
            (-1) ** i * math.comb(n - j, i) * diag(j + i)
            for i in range(n - j + 1)
        )
        out.append(math.comb(n, j) * s)
    return out


@pytest.mark.parametrize("gamma", [1.0, 1.3, 2.0])
@pytest.mark.parametrize("theta", [ThetaParams.uniform(), THETA_BC3])
def test_copula_matches_orthant_oracle_n3(gamma, theta):
    setup = TestingSetup(3, 0.2, theta)
    dist = bonferroni_pmf_copula(setup, gamma, k_max=3)
    oracle = _orthant_pmf(cdf(setup.alpha / 3, theta), gamma)
    for k in range(4):
        assert dist.prob(k) == pytest.approx(oracle[k], abs=1e-10)
    assert dist.tail_mass == pytest.approx(0.0, abs=1e-12)


def test_copula_zero_mass_nondecreasing_in_gamma():
    setup = TestingSetup(50, 0.05, THETA_BC3)
    p0 = [bonferroni_pmf_copula(setup, g, k_max=50).prob(0)
          for g in (1.0, 1.3, 2.0, 5.0)]
    assert all(a < b for a, b in zip(p0, p0[1:]))


@pytest.mark.parametrize("gamma", [1.0, 1.3, 2.0])
def test_copula_mean_invariant_in_gamma(gamma):
    # E[B] = sum_k Pr[B >= k] = n p* regardless of the copula
    setup = TestingSetup(50, 0.05, THETA_BC3)
    dist = bonferroni_pmf_copula(setup, gamma, k_max=50)
    assert dist.mean() == pytest.approx(50 * cdf(0.05 / 50, THETA_BC3), rel=1e-9)


def test_copula_large_n_regression():
    # the quadrature at n = 3226 keeps Pr[B = 0] and the mean n p*
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    dist = bonferroni_pmf_copula(setup, 1.05)
    assert dist.prob(0) == pytest.approx(0.295329, abs=5e-5)
    assert dist.mean() == pytest.approx(
        3226 * cdf(0.05 / 3226, THETA_BC3), rel=1e-6)


def test_copula_k_max_forcing():
    setup = TestingSetup(50, 0.05, THETA_BC3)
    cut = bonferroni_pmf_copula(setup, 1.3, k_max=5)
    full = bonferroni_pmf_copula(setup, 1.3, k_max=50)
    assert cut.k_max == 5
    np.testing.assert_allclose(cut.pmf, full.pmf[:6], rtol=1e-9)
    assert cut.tail_mass == pytest.approx(1.0 - cut.pmf.sum(), abs=1e-12)


@pytest.mark.parametrize("law", [
    lambda setup, k_max: bh_pmf(setup, k_max=k_max),
    lambda setup, k_max: bonferroni_pmf_copula(setup, 1.3, k_max=k_max),
], ids=["bh_pmf", "copula"])
def test_forced_k_max_is_checked_once(law):
    setup = TestingSetup(50, 0.05, THETA_BC3)
    for bad in (2.5, math.nan, math.inf, -1):
        with pytest.raises(InputError, match="k_max must be a whole number"):
            law(setup, bad)
    assert law(setup, 55).k_max == 50


def test_copula_raises_when_the_work_cap_admits_one_grid(monkeypatch):
    # the copula quadrature is the one computation refined until two
    # grids agree; with a work cap that admits only its first grid it
    # must raise rather than return an unchecked pmf
    monkeypatch.setattr(dependence, "_MAX_WORK", 32 * 128 * 65)
    with pytest.raises(NumericError, match="did not converge"):
        bonferroni_pmf_copula(TestingSetup(3226, 0.05, THETA_BC3), 1.05)


def test_copula_rejects_bad_gamma():
    setup = TestingSetup(10, 0.05)
    with pytest.raises(ConstraintError):
        bonferroni_pmf_copula(setup, 0.9)
    with pytest.raises(ConstraintError):
        bonferroni_pmf_copula(setup, math.inf)


@pytest.mark.parametrize("gamma", [0.5, math.nan, math.inf])
def test_every_gamma_entry_point_rejects_the_same_values(gamma):
    checks = [
        lambda: GumbelCopula(gamma),
        lambda: bonferroni_pmf_copula(TestingSetup(10, 0.05), gamma),
        lambda: gumbel_diagonal(0.5, 2, gamma),
        lambda: positive_stable(gamma, np.random.default_rng(0), 4),
    ]
    for check in checks:
        with pytest.raises(ConstraintError, match="gamma must be finite"):
            check()


@pytest.mark.parametrize("gamma", [1.001, 1.05, 1.3])
def test_copula_matches_inclusion_exclusion_case_study(gamma):
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    dist = bonferroni_pmf_copula(setup, gamma)
    oracle = np.array(copula_pmf_inclusion_exclusion(
        3226, cdf(0.05 / 3226, THETA_BC3), gamma, dist.k_max))
    keep = oracle > 1e-300
    assert keep.all()
    rel = np.abs(dist.pmf - oracle) / oracle
    assert rel.max() <= 1e-11  # 2e-13 seen; the binomial's rounding floor
    assert 0.0 <= dist.quadrature_disagreement <= 1e-10
    assert dist.tail_mass <= 1e-9
    assert dist.k_max == int(np.flatnonzero(np.cumsum(oracle) >= 1 - 1e-9)[0])


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=1.0, max_value=5.0),
    st.sampled_from([ThetaParams.uniform(), THETA_BC3]),
    st.floats(min_value=0.01, max_value=0.5),
    st.floats(min_value=-12.0, max_value=-2.0),
)
def test_copula_cap_is_a_bound(n, gamma, theta, alpha, log10_tol):
    # the exact law puts at most tail_tol above the a-priori cap, and the
    # capped law cuts where the exact law's right-summed tail falls to it
    tail_tol = 10.0 ** log10_tol
    p_star = cdf(alpha / n, theta)
    cap = dependence._copula_cap(n, -math.log(p_star), gamma, tail_tol, n)
    oracle = copula_pmf_inclusion_exclusion(n, p_star, gamma, n)
    above = [math.fsum(oracle[k + 1:]) for k in range(n + 1)]
    assert above[cap] <= tail_tol
    cut = next(k for k in range(n + 1) if above[k] <= tail_tol)
    dist = bonferroni_pmf_copula(TestingSetup(n, alpha, theta), gamma, tail_tol)
    assert dist.k_max == cut


def test_copula_runs_one_count_range(monkeypatch):
    caps = []
    real = dependence._frailty_pmf

    def spy(n, log_l, gamma, cap, n_w, n_e):
        caps.append(cap)
        return real(n, log_l, gamma, cap, n_w, n_e)

    monkeypatch.setattr(dependence, "_frailty_pmf", spy)
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    for gamma in (1.05, 1.3):
        caps.clear()
        dist = bonferroni_pmf_copula(setup, gamma)
        assert len(caps) >= 2 and len(set(caps)) == 1
        assert dist.k_max <= caps[0]


def test_copula_over_budget_range_raises_before_any_grid(monkeypatch):
    # at n = 1e9, gamma = 2 the cap passes the work limit of the first
    # grid; the search stops there and no grid runs
    monkeypatch.setattr(dependence, "_frailty_pmf",
                        lambda *args: pytest.fail("a grid ran"))
    start = time.perf_counter()
    with pytest.raises(NumericError, match="grid 1, 32x128 nodes"):
        bonferroni_pmf_copula(TestingSetup(10**9, 0.05, THETA_BC3), 2.0)
    assert time.perf_counter() - start < 2.0


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=1.0, max_value=5.0),
    st.sampled_from([ThetaParams.uniform(), THETA_BC3]),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_copula_matches_inclusion_exclusion_small_n(n, gamma, theta, alpha):
    setup = TestingSetup(n, alpha, theta)
    dist = bonferroni_pmf_copula(setup, gamma, k_max=n)
    p_star = cdf(alpha / n, theta)
    oracle = copula_pmf_inclusion_exclusion(n, p_star, gamma, n)
    assert np.max(np.abs(dist.pmf - oracle)) <= 1e-10
    assert dist.mean() == pytest.approx(n * p_star, rel=1e-9)



# ------------------------------------------------------------ latent model

def test_latent_pmf_is_exact_half_mixture():
    setup = TestingSetup(300, 0.05, THETA_BC3)
    mixture = latent_bh_pmf(setup, HALF_SIG)
    minus, plus = perturbed_pair(THETA_BC3, HALF_SIG)
    lo = bh_pmf(TestingSetup(300, 0.05, minus))
    hi = bh_pmf(TestingSetup(300, 0.05, plus))
    assert mixture.k_max == max(lo.k_max, hi.k_max)
    for k in range(mixture.k_max + 1):
        assert mixture.prob(k) == pytest.approx(
            0.5 * lo.prob(k) + 0.5 * hi.prob(k), rel=1e-12, abs=1e-300)
    assert abs(mixture.pmf.sum() + mixture.tail_mass - 1.0) <= 1e-9


def test_latent_zero_eps_collapses_to_independent(monkeypatch):
    setup = TestingSetup(200, 0.05, THETA_BC3)
    calls = []

    def counted(*args):
        calls.append(args)
        return bh_pmf(*args)

    monkeypatch.setattr(dependence, "bh_pmf", counted)
    mixture = latent_bh_pmf(setup, (0.0, 0.0, 0.0))
    assert len(calls) == 1
    base = bh_pmf(setup)
    assert mixture.k_max == base.k_max
    np.testing.assert_array_equal(mixture.pmf, base.pmf)
    assert latent_pvalue_correlation(THETA_BC3, (0.0, 0.0, 0.0)) == 0.0


# below 1e-12 both laws, cut on a cumulative sum, reject the tolerance
@pytest.mark.parametrize("tail_tol", [0.0, 1.0, 1.5, -1e-9, math.nan, 1e-13])
def test_dependent_pmfs_reject_tail_tol_outside_unit_interval(tail_tol):
    setup = TestingSetup(400, 0.05, THETA_BC3)
    with pytest.raises(InputError, match="tail_tol"):
        bonferroni_pmf_copula(setup, 1.05, tail_tol=tail_tol)
    with pytest.raises(InputError, match="tail_tol"):
        latent_bh_pmf(setup, HALF_SIG, tail_tol=tail_tol)


def test_latent_breast_cancer_half_sigma():
    dist = latent_bh_pmf(TestingSetup(3226, 0.05, THETA_BC3), HALF_SIG)
    assert dist.mean() == pytest.approx(29.3951, abs=5e-4)
    assert dist.sd() == pytest.approx(29.4985, abs=5e-4)
    assert dist.prob(0) == pytest.approx(0.1158, abs=5e-5)


def test_latent_correlation_case_study_values():
    for z, expect in ((0.25, 0.00416), (0.5, 0.01665), (0.75, 0.03747)):
        eps = tuple(z * s for s in SIG_BC3)
        assert latent_pvalue_correlation(THETA_BC3, eps) == pytest.approx(
            expect, abs=5e-6)


def test_latent_correlation_nonnegative_and_symmetric():
    rng = np.random.default_rng(99)
    found = 0
    while found < 25:
        theta = random_theta(int(rng.integers(1, 4)), rng)
        frac = rng.uniform(0.0, 0.5)
        eps = tuple(frac * c for c in theta.coeffs)
        try:
            perturbed_pair(theta, eps)
        except (ConstraintError, InputError):
            continue
        found += 1
        corr = latent_pvalue_correlation(theta, eps)
        assert 0.0 <= corr < 1.0
        neg = tuple(-e for e in eps)
        try:
            perturbed_pair(theta, neg)
        except ConstraintError:
            continue
        assert latent_pvalue_correlation(theta, neg) == pytest.approx(corr, rel=1e-12)


def test_latent_correlation_increases_with_eps_scale():
    vals = [latent_pvalue_correlation(THETA_BC3, tuple(z * s for s in SIG_BC3))
            for z in (0.1, 0.25, 0.5, 0.75)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_latent_moment_mixture_identity():
    # marginal mean under the mixture is the average of component means
    minus, plus = perturbed_pair(THETA_BC3, HALF_SIG)
    mixture_mean = 0.5 * moment(1, minus) + 0.5 * moment(1, plus)
    assert mixture_mean == pytest.approx(moment(1, THETA_BC3), abs=1e-15)


def test_latent_pmf_propagates_infeasible_eps():
    setup = TestingSetup(100, 0.05, THETA_BC3)
    with pytest.raises(ConstraintError):
        latent_bh_pmf(setup, (0.0, 0.0, 0.03))


def test_copula_raises_when_p_star_leaves_the_unit_interval():
    # alpha / n underflows to 0, so p* = Psi(0) = 0 and -log p* is infinite
    setup = TestingSetup(2, 5e-324)
    assert cdf(setup.alpha / setup.n, setup.marginal) == 0.0
    with pytest.raises(NumericError, match=r"p\* = Psi\(alpha/n\) = 0\.0 leaves \(0, 1\)"):
        bonferroni_pmf_copula(setup, 1.5)
