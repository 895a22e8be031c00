"""Discovery-count distributions: counting rules, the staircase-integral
recursion, closed forms and limits.

Oracles: a naive loop for the counting rules; exact piecewise-polynomial
integration for the staircase integrals; the uniform-null closed form;
scipy.stats and 40-digit mpmath values for the Bonferroni
binomial/Poisson, with scipy's isf for their truncation point; the
scipy minimize_scalar + brentq solve for the normal component; and the
alternating staircase recursion run in extended precision until two
passes agree, with the factorial identity behind it checked separately.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from mpmath import binomial as mp_binomial, loggamma, mp, mpf, workprec
from scipy import optimize, stats

from conftest import SIG_BC3, THETA_BC3, THETA_HUANG, THETA_TCGA, thetas
from fdrdist import (
    CountDistribution,
    InputError,
    NumericError,
    TestingSetup,
    ThetaParams,
    bh_count,
    bh_count_step_up,
    bh_pmf,
    bh_pmf_uniform_exact,
    bonferroni_count,
    bonferroni_pmf,
    bonferroni_poisson,
    borel_limit_param,
    borel_tanner_mean,
    borel_tanner_pmf,
    borel_tanner_var,
    cdf,
    normal_approx,
    density,
    perturbed_pair,
    scale_theta,
    u_k,
)
from fdrdist.count_dist import _binomial_law, _poisson_law
from fdrdist import count_dist
from mp_oracles import beta_mp, cdf_mp


def _naive_step_down(pvalues, alpha):
    s = np.sort(np.asarray(pvalues, dtype=float))
    n = s.size
    k = 0
    while k < n and s[k] <= (k + 1) * alpha / n:
        k += 1
    return k


def _naive_step_up(pvalues, alpha):
    s = np.sort(np.asarray(pvalues, dtype=float))
    n = s.size
    for k in range(n, 0, -1):
        if s[k - 1] <= k * alpha / n:
            return k
    return 0


# --------------------------------------------------------------- counting

def test_bh_count_hand_example():
    p = [0.01, 0.04, 0.3]
    # thresholds at alpha = .05, n = 3: .0167, .0333, .05
    assert bh_count(p, 0.05) == 1
    assert bh_count_step_up(p, 0.05) == 1
    assert bonferroni_count(p, 0.05) == 1


def test_step_down_and_step_up_differ_on_gaps():
    # p_(2) misses its threshold but p_(3) meets it: step-up jumps past
    # the gap, the step-down run stops at it
    p = [0.01, 0.04, 0.045]
    assert bh_count(p, 0.05) == 1
    assert bh_count_step_up(p, 0.05) == 3


def test_counts_at_threshold_ties():
    # exact threshold hits count as discoveries
    p = [0.05 / 3, 0.9, 0.95]
    assert bh_count(p, 0.05) == 1
    assert bonferroni_count([0.05 / 3, 0.5, 0.5], 0.05) == 1


def test_counts_extremes():
    assert bh_count([0.001, 0.002, 0.003], 0.5) == 3
    assert bh_count([0.9, 0.95, 0.99], 0.05) == 0
    assert bh_count([], 0.05) == 0


def test_count_input_validation():
    with pytest.raises(InputError):
        bh_count([0.5, 1.5], 0.05)
    with pytest.raises(InputError):
        bh_count([0.5, -0.1], 0.05)
    with pytest.raises(InputError):
        bh_count([[0.5], [0.2]], 0.05)
    with pytest.raises(InputError):
        bh_count([0.5], 1.0)
    with pytest.raises(InputError):
        bonferroni_count([0.5], 0.0)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    st.floats(min_value=0.01, max_value=0.99),
)
# p-values exactly on i*alpha/n, which (alpha/n)*i rounds below
@example(p=[0.0, 0.0, 0.928028517921406], alpha=0.928028517921406)
@example(p=[0.0, 0.75, 0.928028517921406], alpha=0.928028517921406)
def test_counting_rules_match_naive_loops(p, alpha):
    assert bh_count(p, alpha) == _naive_step_down(p, alpha)
    assert bh_count_step_up(p, alpha) == _naive_step_up(p, alpha)
    assert bonferroni_count(p, alpha) == int(
        np.sum(np.asarray(p) <= alpha / max(len(p), 1))
    )


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_count_orderings(p, alpha):
    # Bonferroni is the most conservative; step-up dominates step-down
    b = bonferroni_count(p, alpha)
    sd = bh_count(p, alpha)
    su = bh_count_step_up(p, alpha)
    assert b <= sd <= su


# ------------------------------------------------- staircase integrals U_k

def _staircase_volume(bounds):
    """Volume of {0 <= u_1 <= ... <= u_k, u_j <= bounds[j-1]} by exact
    piecewise-polynomial integration: V_j(t) = int_0^min(t, c_j) V_{j-1},
    each V_j kept as (lo, hi, ascending coefficients) pieces.

    Independent of the library's alternating recursion; exact up to
    float rounding.
    """
    pieces = [(0.0, math.inf, np.array([1.0]))]
    for cj in bounds:
        nxt, acc = [], 0.0
        for lo, hi, coef in pieces:
            if lo >= cj:
                break
            hi = min(hi, cj)
            anti = np.polynomial.polynomial.polyint(coef)
            anti[0] += acc - np.polynomial.polynomial.polyval(lo, anti)
            nxt.append((lo, hi, anti))
            acc = np.polynomial.polynomial.polyval(hi, anti)
        nxt.append((cj, math.inf, np.array([acc])))
        pieces = nxt
    lo, hi, coef = pieces[-1]
    return float(np.polynomial.polynomial.polyval(lo, coef))


def test_staircase_oracle_self_check():
    # ordered box with no binding constraints is the simplex volume
    assert _staircase_volume([1.0] * 4) == pytest.approx(1 / 24, rel=1e-13)
    # one binding bound: V = c1 * c2 - c1^2/2
    c1, c2 = 0.2, 0.7
    assert _staircase_volume([c1, c2]) == pytest.approx(c1 * c2 - c1**2 / 2, rel=1e-13)


@pytest.mark.parametrize("theta", [ThetaParams.uniform(), THETA_BC3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_u_k_matches_staircase_oracle(theta, k):
    setup = TestingSetup(10, 0.3, theta)
    bounds = [cdf(j * setup.alpha / setup.n, setup.marginal) for j in range(1, k + 1)]
    assert math.exp(u_k(setup, k)) == pytest.approx(_staircase_volume(bounds), rel=1e-11)
    for bad_k in (11, -1, 2.5):
        with pytest.raises(InputError, match="k must be an integer"):
            u_k(setup, bad_k)


def test_u_k_uniform_closed_form():
    # under the uniform marginal U_k = (k+1)^(k-1) (alpha/n)^k / k!
    setup = TestingSetup(100, 0.2)
    a = setup.alpha / setup.n
    for k in range(1, 13):
        closed = (k + 1) ** (k - 1) * a**k / math.factorial(k)
        assert math.exp(u_k(setup, k)) == pytest.approx(closed, rel=1e-12)
    # far below double range the log keeps the closed form's value
    deep = TestingSetup(20068, 0.05)
    a = deep.alpha / deep.n
    closed = 399 * math.log(401) + 400 * math.log(a) - math.lgamma(401)
    assert u_k(deep, 400) == pytest.approx(closed, rel=1e-12)


def test_factorial_identity_behind_recursion():
    # sum_i (-1)^i C(k,i) (x-i)^k = k! for every real x; the telescoping
    # of the alternating oracle recursion below rests on it
    rng = np.random.default_rng(7)
    with workprec(300):
        for k in range(0, 9):
            for x in rng.uniform(-10.0, 10.0, size=5):
                xm = mpf(float(x))  # shift in extended precision, not in double
                s = mpf(0)
                for i in range(k + 1):
                    s += (-1) ** i * mp_binomial(k, i) * (xm - i) ** k
                assert abs(s - math.factorial(k)) <= mpf("1e-20") * math.factorial(k)


# ----------------------------------------------------------- exact BH pmf

def test_bh_pmf_uniform_matches_closed_form():
    setup = TestingSetup(25, 0.2)
    dist = bh_pmf(setup, k_max=25)
    for k in range(26):
        closed = bh_pmf_uniform_exact(25, 0.2, k)
        if closed > 0:
            assert dist.prob(k) == pytest.approx(closed, rel=1e-10)
        else:
            assert dist.prob(k) <= 1e-15


def test_uniform_closed_form_full_mass_at_extreme_alpha():
    # at alpha > n/(n+1) the k = n term carries a zero-exponent survival
    # factor; the closed form must still sum to one
    total = sum(bh_pmf_uniform_exact(10, 0.95, k) for k in range(11))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert bh_pmf_uniform_exact(10, 0.95, 10) > 0.1
    with pytest.raises(InputError):
        bh_pmf_uniform_exact(10, 0.5, 19)
    with pytest.raises(InputError):
        bh_pmf_uniform_exact(10, 1.0, 5)
    # n is a size: a fraction, zero and NaN are rejected as such
    for bad_n, k in ((2.5, 1), (0, 0), (math.nan, 0)):
        with pytest.raises(InputError, match="n must be a positive integer"):
            bh_pmf_uniform_exact(bad_n, 0.5, k)
    with pytest.raises(InputError, match="k must be an integer"):
        bh_pmf_uniform_exact(10, 0.5, 2.5)
    # the recursion agrees with the closed form in this corner too
    dist = bh_pmf(TestingSetup(10, 0.95), k_max=10)
    for k in range(11):
        assert dist.prob(k) == pytest.approx(
            bh_pmf_uniform_exact(10, 0.95, k), rel=1e-10)


def test_bh_pmf_breast_cancer_regression():
    dist = bh_pmf(TestingSetup(3226, 0.05, THETA_BC3))
    assert dist.mean() == pytest.approx(22.739057436842042, rel=1e-9)
    assert dist.sd() == pytest.approx(18.117463, rel=1e-6)
    assert dist.prob(0) == pytest.approx(0.100642, rel=1e-4)
    assert dist.tail_mass <= 1e-9
    assert dist.k_max >= 120
    assert dist.mean_error_bound() <= 1e-9 * 3226


def test_bh_pmf_forced_k_max_truncates():
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    full = bh_pmf(setup)
    cut = bh_pmf(setup, k_max=10)
    assert cut.k_max == 10
    assert len(cut.pmf) == 11
    np.testing.assert_allclose(cut.pmf, full.pmf[:11], rtol=1e-10)
    assert cut.tail_mass == pytest.approx(1.0 - cut.pmf.sum(), abs=1e-12)
    assert cut.mean_error_bound() == pytest.approx(cut.tail_mass * 3226, rel=1e-12)


def test_bh_pmf_looser_tail_tol_stops_earlier():
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    loose = bh_pmf(setup, tail_tol=1e-4)
    tight = bh_pmf(setup, tail_tol=1e-9)
    assert loose.k_max < tight.k_max
    assert loose.tail_mass <= 1e-4


@pytest.mark.parametrize("tail_tol", [0.0, 1.0, 1.5, -1e-9, math.nan, 1e-13])
@pytest.mark.parametrize("pmf", [bh_pmf, bonferroni_pmf, bonferroni_poisson])
def test_pmfs_reject_tail_tol_outside_unit_interval(pmf, tail_tol):
    # 0 would run the recursion to k = n; 1 or more, or NaN, would
    # silently return a one-entry pmf.  Below 1e-12 a double-precision
    # cumulative sum cannot tell the step-down mass apart from 1; the
    # closed-form Bonferroni laws still take any tolerance in (0, 1).
    setup = TestingSetup(400, 0.05, THETA_BC3)
    if tail_tol == 1e-13 and pmf is not bh_pmf:
        assert pmf(setup, tail_tol=tail_tol).tail_mass <= tail_tol
        return
    with pytest.raises(InputError, match="tail_tol"):
        pmf(setup, tail_tol=tail_tol)


# ------------------------------------- double precision against mpmath

def _alternating_pmf(setup, bits, tail_tol):
    """Step-down pmf from the alternating recursion at a fixed precision:
    with c_j = Psi(j alpha/n),

        U_k = sum_{j=1..k} (-1)^(k-j) c_j^(k-j+1) U_{j-1} / (k-j+1)!

    and Pr[K=k] = n!/(n-k)! U_k (1 - c_{k+1})^(n-k), up to the first k
    whose cumulative mass reaches 1 - tail_tol.  Its terms cancel, so
    it needs far more than double precision.
    """
    n = setup.n
    with workprec(bits):
        beta = beta_mp(setup.marginal)
        a = mpf(setup.alpha) / n
        c = [mpf(0), cdf_mp(a, beta)]
        facts = [mpf(1), mpf(1)]
        U = [mpf(1)]
        P = [None]  # P[j] = c_j^(k-j+1), advanced one power per k
        pmf = [(1 - c[1]) ** n]
        cum = pmf[0]
        ff = mpf(1)
        k = 0
        while k < n and cum < 1 - mpf(tail_tol):
            k += 1
            c.append(cdf_mp((k + 1) * a, beta))
            facts.append(facts[-1] * (k + 1))
            P.append(c[k])
            for j in range(1, k):
                P[j] = P[j] * c[j]
            s = mpf(0)
            for j in range(1, k + 1):
                term = P[j] * U[j - 1] / facts[k - j + 1]
                s = s + term if (k - j) % 2 == 0 else s - term
            U.append(s)
            ff = ff * (n - k + 1)
            pmf.append(ff * s * (1 - c[k + 1]) ** (n - k))
            cum += pmf[-1]
        return pmf


def _oracle_pmf(setup, tail_tol=1e-9):
    """The alternating recursion from 256 bits, doubled until two
    successive passes have the same length and agree per entry to 1e-13."""
    bits = 256
    prev = _alternating_pmf(setup, bits, tail_tol)
    while True:
        bits *= 2
        assert bits <= 8192, "oracle did not settle"
        cur = _alternating_pmf(setup, bits, tail_tol)
        if len(cur) == len(prev) and all(
                abs(x - y) <= mpf("1e-13") * max(abs(x), abs(y))
                for x, y in zip(prev, cur)):
            return np.array([float(x) for x in cur])
        prev = cur


def _assert_matches_oracle(setup):
    dist = bh_pmf(setup)
    ref = _oracle_pmf(setup)
    assert dist.k_max == ref.size - 1
    big = ref > 1e-300
    rel = np.abs(dist.pmf[big] - ref[big]) / ref[big]
    assert rel.max() <= 1e-10
    assert np.all(dist.pmf[~big] <= 1e-290)


def test_bh_pmf_matches_alternating_oracle_breast_cancer():
    _assert_matches_oracle(TestingSetup(3226, 0.05, THETA_BC3))


def test_bh_pmf_matches_alternating_oracle_strong_pilot_branch():
    # the plus branch of the pilot grid's strongest cell (N = 600,
    # z = 0.8), at a smaller number of tests
    scaled = scale_theta(THETA_HUANG, 600, 78)
    strong = ThetaParams(3, tuple(1.8 * c for c in scaled.coeffs))
    _assert_matches_oracle(TestingSetup(5000, 0.05, strong))


@given(
    thetas(0, 4),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.005, max_value=0.6),
)
def test_bh_pmf_matches_alternating_oracle_random_theta(theta, n, alpha):
    _assert_matches_oracle(TestingSetup(n, alpha, theta))


# ------------------------- one capped pass against the full-kernel recursion

def _full_kernel_logs(setup, cap):
    """log Pr[K = k] for k = 0..cap from the Poissonized Noe recursion
    with every Poisson kernel at full width and no rescaling of H."""
    n = setup.n
    b = cdf(np.minimum(np.arange(cap + 2) * setup.alpha / n, 1.0), setup.marginal)
    lam = n * np.maximum(np.diff(b), 0.0)
    m = np.arange(cap + 1)
    log_fact = count_dist._log_factorials(cap)
    h = np.zeros(cap + 1)
    h[0] = 1.0
    diag = np.ones(cap + 1)
    for j in range(1, cap + 1):
        width = cap + 2 - j
        pois = count_dist._poisson_pmf(float(lam[j - 1]), log_fact[:width])
        h[j - 1:] = np.convolve(h[j - 1:], pois)[:width]
        diag[j] = h[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        survive = (n - m) * np.log1p(-b[1:])
        log_h = np.log(diag)
    survive[m == n] = 0.0
    log_falling = np.concatenate(([0.0], np.cumsum(np.log1p(-m[:-1] / n))))
    return log_falling + log_h + n * b[:-1] + survive


def _full_kernel_pmf(setup, tail_tol=1e-9):
    """The full-kernel recursion from a capacity of 64 counts, doubled
    until the cumulative mass reaches 1 - tail_tol (or the cap is n)."""
    cap = min(64, setup.n)
    while True:
        logs = _full_kernel_logs(setup, cap)
        hit = np.flatnonzero(np.cumsum(np.exp(logs)) >= 1.0 - tail_tol)
        if hit.size:
            return logs[: hit[0] + 1]
        if cap == setup.n:
            return logs
        cap = min(2 * cap, setup.n)


def _pilot_cell_setups():
    """Both latent branches of the 12 (N, z) cells of the pilot power grid."""
    out = []
    for n_subj in (78, 300, 450, 600):
        scaled = scale_theta(THETA_HUANG, n_subj, 78)
        for z in (0.0, 0.4, 0.8):
            eps = tuple(z * c for c in scaled.coeffs)
            out += [TestingSetup(48803, 0.05, th) for th in perturbed_pair(scaled, eps)]
    return out


@pytest.mark.parametrize("setup", [
    TestingSetup(3226, 0.05, THETA_BC3),
    TestingSetup(20068, 0.05, THETA_TCGA),
    *_pilot_cell_setups(),
])
def test_bh_pmf_matches_full_kernel_recursion(setup):
    dist = bh_pmf(setup)
    ref = _full_kernel_pmf(setup)
    assert dist.k_max == ref.size - 1
    big = ref > math.log(1e-300)
    assert np.abs(np.log(dist.pmf[big]) - ref[big]).max() <= 1e-13


@given(
    thetas(0, 6),
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.005, max_value=0.9),
    st.floats(min_value=-12.0, max_value=-2.0),
)
# Pr[X > 254] is 1.0016e-12 from the full pass; the capped pass read it
# as 0.99986e-12 from 1 - sum(pmf) and cut one count lower
@example(theta=ThetaParams(5, (0.053884689401785466, 0.17713111098564033,
                               0.02351645663941679, 0.013725376378412465,
                               0.0003106418766243892)),
         n=303, alpha=0.10238157266017046, log10_tol=-12.0)
def test_step_down_cap_is_a_bound(theta, n, alpha, log10_tol):
    # a full pass to k = n puts at most tail_tol above the a-priori cap,
    # up to the rounding of its sum, and the capped pass cuts where the
    # finisher cuts the full pass
    tail_tol = 10.0 ** log10_tol
    setup = TestingSetup(n, alpha, theta)
    cap = count_dist._capped_thresholds(setup, tail_tol).size - 2
    full_b = count_dist._thresholds(setup, 0, n + 2)
    full = np.exp(count_dist._step_down_logs(n, full_b)[1])
    assert full[cap + 1:].sum() <= tail_tol + n * 2.0**-53
    cut = count_dist._truncated(setup, full, tail_tol).k_max
    assert bh_pmf(setup, tail_tol).k_max == cut


# --------------------- H at scale 2^_TOP against the unit-scale pass

def _unit_scale_logs(n, b):
    """``_step_down_logs`` with H rescaled so that its largest entry lies
    in [1/2, 1): the same pass at unit scale, where the kernel tails
    times small entries of H run in subnormal arithmetic."""
    cap = b.size - 2
    lam = n * np.maximum(np.diff(b), 0.0)
    m = np.arange(cap + 1)
    log_fact = count_dist._log_factorials(cap)
    h, diag, shift = np.zeros(cap + 1), np.ones(cap + 1), np.zeros(cap + 1)
    h[0] = 1.0
    for j in range(1, cap + 1):
        width = min(cap + 2 - j, count_dist._window_end(lam[j - 1]))
        pois = count_dist._poisson_pmf(float(lam[j - 1]), log_fact[:width])
        last = width - int(np.argmax(pois[::-1] >= count_dist._TINY))
        tail = np.convolve(h[j - 1:], pois[:last])[: cap + 2 - j]
        exp2 = math.frexp(float(tail.max()))[1]
        h[j - 1:] = np.ldexp(tail, -exp2)
        diag[j], shift[j] = h[j], shift[j - 1] + exp2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = np.log(diag) + shift * math.log(2.0)
        survive = (n - m) * np.log1p(-b[1:])
    survive[m == n] = 0.0
    log_u = log_h + n * b[:-1] - m * math.log(n)
    log_falling = np.concatenate(([0.0], np.cumsum(np.log1p(-m[:-1] / n))))
    return log_u, log_falling + log_h + n * b[:-1] + survive


def _case_study_setups():
    """The breast-cancer and TCGA setups and both latent branches of the
    breast-cancer study at z = 0.25, 0.5 and 0.75."""
    out = [TestingSetup(3226, 0.05, THETA_BC3), TestingSetup(20068, 0.05, THETA_TCGA)]
    for z in (0.25, 0.5, 0.75):
        eps = tuple(z * s for s in SIG_BC3)
        out += [TestingSetup(3226, 0.05, th) for th in perturbed_pair(THETA_BC3, eps)]
    return out


@pytest.mark.parametrize("setup", _case_study_setups() + _pilot_cell_setups())
def test_step_down_scale_is_bit_identical_on_bench_setups(setup):
    b = count_dist._capped_thresholds(setup, 1e-9)
    for got, want in zip(count_dist._step_down_logs(setup.n, b),
                         _unit_scale_logs(setup.n, b)):
        assert got.tobytes() == want.tobytes()


@given(
    thetas(0, 5),
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.005, max_value=0.9),
)
def test_step_down_scale_agrees_with_unit_scale(theta, n, alpha):
    # entries that differ moved only through subnormal work at unit scale,
    # so the scaled pass must be no farther from the extended-precision
    # oracle there
    setup = TestingSetup(n, alpha, theta)
    b = count_dist._capped_thresholds(setup, 1e-9)
    got = np.exp(count_dist._step_down_logs(n, b)[1])
    want = np.exp(_unit_scale_logs(n, b)[1])
    big = want > 1e-280
    assert np.all(np.abs(got[big] - want[big]) <= 1e-13 * want[big])
    differ = np.flatnonzero(got != want)
    if differ.size:
        oracle = _oracle_pmf(setup, 0.0)
        for k in differ[differ < oracle.size]:
            assert abs(got[k] - oracle[k]) <= abs(want[k] - oracle[k])


def test_step_down_scale_leaves_subnormal_arithmetic(monkeypatch):
    # both branches of the strongest pilot cell, N = 600, z = 0.8: 4,835
    # subnormal convolution outputs at unit scale, 684 at 2^_TOP.  Those
    # left are entries below 2^-2022 of H's largest, on the front edge of
    # H's support and in the convolution tail past the cap, which the pass
    # drops, so no scale of H removes them
    counts = []
    real, tiny = np.convolve, np.finfo(float).tiny

    def counted(a, v, *args):
        out = real(a, v, *args)
        counts[-1] += int(np.count_nonzero((out != 0.0) & (np.abs(out) < tiny)))
        return out

    monkeypatch.setattr(count_dist.np, "convolve", counted)
    for logs in (_unit_scale_logs, count_dist._step_down_logs):
        counts.append(0)
        for setup in _pilot_cell_setups()[-2:]:
            logs(setup.n, count_dist._capped_thresholds(setup, 1e-9))
    unit, scaled = counts
    assert unit > 0
    assert scaled <= unit / 5


@pytest.mark.parametrize("n, alpha, theta", [
    *[(n, 1.0, theta) for n in (1, 2, 50, 2000)
      for theta in (ThetaParams.uniform(), THETA_BC3)],
    (2000, 0.5, ThetaParams(2, (0.2, 0.4))),
    (2000, 0.5, ThetaParams.uniform()),
])
def test_step_down_scale_has_headroom(n, alpha, theta):
    # alpha = 1 (past TestingSetup's range) runs the pass to k = n: the
    # thresholds reach Psi(1) = 1 and every count up to n is kept
    if alpha == 1.0:
        b = cdf(np.minimum(np.arange(n + 2) * alpha / n, 1.0), theta)
    else:
        b = count_dist._capped_thresholds(TestingSetup(n, alpha, theta), 1e-9)
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = count_dist._step_down_logs(n, b)
    for new, ref in zip(got, _unit_scale_logs(n, b)):
        assert np.all(np.isfinite(new[np.isfinite(ref)]))


def test_bh_pmf_runs_one_pass(monkeypatch):
    passes = []
    real = count_dist._step_down_logs

    def counted(n, b):
        passes.append(b.size - 2)
        return real(n, b)

    monkeypatch.setattr(count_dist, "_step_down_logs", counted)
    setup = TestingSetup(20068, 0.05, THETA_TCGA)
    assert bh_pmf(setup).k_max == 424
    bh_pmf(setup, k_max=30)
    assert passes == [443, 30]


def test_setup_validation():
    with pytest.raises(InputError):
        TestingSetup(0, 0.05)
    with pytest.raises(InputError):
        TestingSetup(10, 1.0)
    with pytest.raises(Exception):
        TestingSetup(10, 0.05, ThetaParams(3, (0.9, 0.9, 0.9)))
    # 10**400 used to pass the integrality check and overflow in bh_pmf
    for n in (2.5, math.nan, math.inf, 10**400, 2**53 + 1):
        with pytest.raises(InputError, match="positive integer"):
            TestingSetup(n, 0.05)
    assert TestingSetup(10.0, 0.05).n == 10
    assert TestingSetup(2**53, 0.05).n == 2**53


# ------------------------------------------------------------ Borel-Tanner

def test_borel_tanner_identities():
    alpha = 0.05
    pmf = np.array([borel_tanner_pmf(alpha, k) for k in range(501)])
    assert pmf.sum() == pytest.approx(1.0, abs=1e-10)
    k = np.arange(501)
    assert float(k @ pmf) == pytest.approx(borel_tanner_mean(alpha), abs=1e-8)
    second = float((k * k) @ pmf)
    assert second - float(k @ pmf) ** 2 == pytest.approx(borel_tanner_var(alpha), abs=1e-8)
    assert borel_tanner_pmf(alpha, 0) == pytest.approx(math.exp(-alpha), rel=1e-15)


def test_borel_tanner_validation():
    with pytest.raises(InputError):
        borel_tanner_pmf(0.0, 1)
    with pytest.raises(InputError):
        borel_tanner_pmf(0.05, -1)
    with pytest.raises(InputError):
        borel_tanner_pmf(0.05, 2.5)
    with pytest.raises(InputError):
        borel_tanner_mean(1.0)


def test_borel_limit_param():
    # alpha * (1 + beta_I), with beta_I = theta_I for the top coefficient
    assert borel_limit_param(THETA_BC3, 0.05) == pytest.approx(0.051005, abs=1e-12)
    assert borel_limit_param(ThetaParams.uniform(), 0.05) == 0.05
    with pytest.raises(InputError):
        borel_limit_param(THETA_BC3, 0.0)


# ------------------------------------------------------------- Bonferroni

def test_bonferroni_pmf_is_binomial():
    setup = TestingSetup(50, 0.05, THETA_BC3)
    dist = bonferroni_pmf(setup)
    q = cdf(0.05 / 50, THETA_BC3)
    oracle = stats.binom(50, q)
    for k in range(dist.k_max + 1):
        assert dist.prob(k) == pytest.approx(oracle.pmf(k), rel=1e-12)
    assert dist.tail_mass <= 1e-9
    assert dist.mean() == pytest.approx(50 * q, abs=1e-7)


def test_bonferroni_poisson_limit():
    setup = TestingSetup(5000, 0.05, THETA_BC3)
    exact = bonferroni_pmf(setup)
    limit = bonferroni_poisson(setup)
    mean = 5000 * cdf(0.05 / 5000, THETA_BC3)
    oracle = stats.poisson(mean)
    for k in range(limit.k_max + 1):
        assert limit.prob(k) == pytest.approx(oracle.pmf(k), rel=1e-12)
    # at n = 5000 the binomial and its Poisson limit nearly coincide
    for k in range(min(exact.k_max, limit.k_max) + 1):
        assert limit.prob(k) == pytest.approx(exact.prob(k), abs=5e-4)


_EPS = np.finfo(float).eps


def _isf_k_max(dist, tail_tol, n):
    """The README truncation rule on a scipy law: the smallest k with
    sf(k) <= tail_tol, capped at n, found by stepping from scipy's isf."""
    k_max = int(dist.isf(tail_tol))
    while k_max > 0 and dist.sf(k_max - 1) <= tail_tol:
        k_max -= 1
    while dist.sf(k_max) > tail_tol:
        k_max += 1
    return min(k_max, n)


def _assert_rel(got, want, tol):
    big = want > 1e-300
    rel = np.abs(got[big] / want[big] - 1.0)
    assert np.all(rel <= np.broadcast_to(tol, want.shape)[big]), rel.max()


@pytest.mark.parametrize("n, theta", [(3226, THETA_BC3), (20068, THETA_TCGA),
                                      (48803, THETA_HUANG)])
@pytest.mark.parametrize("tail_tol", [1e-9, 1e-12])
def test_bonferroni_laws_match_scipy_case_studies(n, theta, tail_tol):
    setup = TestingSetup(n, 0.05, theta)
    p_star = cdf(0.05 / n, theta)
    for law, oracle in ((bonferroni_pmf(setup, tail_tol), stats.binom(n, p_star)),
                        (bonferroni_poisson(setup, tail_tol), stats.poisson(n * p_star))):
        assert law.k_max == _isf_k_max(oracle, tail_tol, n)
        _assert_rel(law.pmf, oracle.pmf(np.arange(law.k_max + 1)), 1e-13)
        assert law.tail_mass == pytest.approx(oracle.sf(law.k_max), rel=1e-9)


@given(
    n=st.integers(min_value=1, max_value=100_000),
    p_star=st.floats(min_value=1e-8, max_value=0.5, exclude_min=True,
                     exclude_max=True),
    tail_tol=st.sampled_from([1e-9, 1e-12]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bonferroni_laws_match_oracles(n, p_star, tail_tol, seed):
    # rounding n p* and n (1 - p*) moves log Pr[k] by about
    # eps |k - n p*|, and its terms by eps |log Pr[k]|; no double-precision
    # evaluation does better, so entries far out in a large-n tail get
    # that allowance on top of 1e-13.  scipy's binomial (boost's incomplete
    # beta derivative) is itself up to 4.3e-13 off the exact value at
    # n = 227, so against scipy the floor is 1e-12 and against the exact
    # 40-digit value it is 1e-13.
    setup = TestingSetup(n, 0.05)
    law = _binomial_law(setup, p_star, tail_tol)
    oracle = stats.binom(n, p_star)
    assert law.k_max == _isf_k_max(oracle, tail_tol, n)
    k = np.arange(law.k_max + 1)
    want = oracle.pmf(k)
    with np.errstate(divide="ignore"):
        cond = _EPS * (np.abs(k - n * p_star) + np.abs(np.log(want)))
    _assert_rel(law.pmf, want, 1e-12 + 8 * cond)
    rng = np.random.default_rng(seed)
    with workprec(140):
        p = mpf(p_star)
        for j in {0, law.k_max, min(law.k_max, int(n * p_star)),
                  *rng.integers(0, law.k_max + 1, 6).tolist()}:
            log_exact = (loggamma(n + 1) - loggamma(j + 1) - loggamma(n - j + 1)
                         + j * mp.log(p) + (n - j) * mp.log1p(-p))
            if log_exact > -690:
                exact = float(mp.exp(log_exact))
                allow = 1e-13 + 4 * _EPS * (abs(j - n * p_star) + abs(float(log_exact)))
                assert abs(law.pmf[j] / exact - 1.0) <= allow

    # the Poisson pmf is scipy's own formula exp(k log mu - lgamma(k+1) - mu);
    # its terms reach k log mu, so two evaluations that round lgamma
    # differently part by eps times their size
    mean = n * p_star
    law = _poisson_law(setup, mean, tail_tol)
    oracle = stats.poisson(mean)
    assert law.k_max == _isf_k_max(oracle, tail_tol, n)
    k = np.arange(law.k_max + 1)
    terms = (k * abs(math.log(mean))
             + np.array([math.lgamma(j + 1.0) for j in k]) + mean)
    _assert_rel(law.pmf, oracle.pmf(k), 1e-13 + 4 * _EPS * terms)


def test_bonferroni_tail_mass_is_summed_from_the_right():
    # 1 - sum(pmf) would be rounding noise at this tolerance
    setup = TestingSetup(3226, 0.05, THETA_BC3)
    oracle = stats.binom(3226, cdf(0.05 / 3226, THETA_BC3))
    law = bonferroni_pmf(setup, tail_tol=1e-15)
    assert 0.0 < law.tail_mass <= 1e-15
    assert law.tail_mass == pytest.approx(oracle.sf(law.k_max), rel=1e-9)


# -------------------------------------------------------- normal component

def test_normal_approx_breast_cancer():
    na = normal_approx(TestingSetup(3226, 0.05, THETA_BC3))
    assert na.has_component
    assert bool(na)
    assert na.mu == pytest.approx(26.09393099069509, rel=1e-10)
    assert na.sigma == pytest.approx(14.943106486250096, rel=1e-10)
    # mu solves the centering fixed point n Psi((mu+1) alpha / n) = mu + 1
    resid = 3226 * cdf((na.mu + 1) * 0.05 / 3226, THETA_BC3) - (na.mu + 1)
    assert abs(resid) < 1e-6


def test_normal_approx_absent_under_uniform():
    na = normal_approx(TestingSetup(100, 0.05))
    assert not na.has_component
    assert not bool(na)
    assert na.mu is None and na.sigma is None


def _scipy_normal_approx(setup):
    """(mu, sigma) by the scipy solve normal_approx used before: a bounded
    minimize_scalar for the peak of the concave gap when gap(0) <= 0,
    then brentq on the down-crossing (to 1e-15 absolute and 4 eps
    relative, so that a small mu is still found to full precision); None
    when there is no root.  Psi is 1 from p = 1 on, where (mu+1) alpha / n
    lands for mu near n when alpha > n / (n+1)."""
    n, alpha, theta = setup.n, setup.alpha, setup.marginal

    def gap(mu):
        return n * cdf(min((mu + 1.0) * alpha / n, 1.0), theta) - (mu + 1.0)

    lo = 0.0
    if gap(0.0) <= 0.0:
        peak = optimize.minimize_scalar(
            lambda m: -gap(m), bounds=(0.0, float(n)), method="bounded")
        if -peak.fun <= 0.0:
            return None
        lo = float(peak.x)
    hi = min(float(n), max(2.0 * lo, 1.0))
    while gap(hi) > 0.0 and hi < n:
        hi = min(float(n), 2.0 * hi)
    if gap(hi) > 0.0:
        return None
    mu = optimize.brentq(gap, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps,
                         maxiter=200)
    if mu <= 0.0:
        return None
    return mu, math.sqrt(n / density(mu * alpha / n, theta))


def _assert_normal_matches_scipy(setup):
    want = _scipy_normal_approx(setup)
    got = normal_approx(setup)
    if want is None:
        assert not got
    else:
        assert got.mu == pytest.approx(want[0], rel=1e-10)
        assert got.sigma == pytest.approx(want[1], rel=1e-10)


@pytest.mark.parametrize("setup", [
    TestingSetup(3226, 0.05, THETA_BC3),
    TestingSetup(20068, 0.05, THETA_TCGA),
    TestingSetup(100, 0.05),
    *_pilot_cell_setups(),
])
def test_normal_approx_matches_scipy_solve(setup):
    _assert_normal_matches_scipy(setup)


_THETA_SEED_7 = ThetaParams(2, (0.3363695214083519, 0.3125477333023335))


@given(
    thetas(0, 6),
    st.integers(min_value=1, max_value=2**40),
    st.floats(min_value=0.005, max_value=0.99),
)
@example(theta=ThetaParams(2, (0.054105022815595795, 0.2946086629480683)),
         n=2, alpha=0.3359375)  # mu = 0.067
# the concave gap peaks at mu = 0 on [0, n]; alpha bisected so that the
# peak is +1e-5 (a crossing at mu = 5.5e-5) and -1e-6 (no component).
# At +1e-6 the crossing sits at the double-rounding floor of the gap,
# where both solvers agree only to about 2e-10 relative.
@example(theta=_THETA_SEED_7, n=300, alpha=0.026961755655817474)
@example(theta=_THETA_SEED_7, n=300, alpha=0.026961392672604806)
def test_normal_approx_matches_scipy_solve_random_theta(theta, n, alpha):
    _assert_normal_matches_scipy(TestingSetup(n, alpha, theta))


def test_normal_approx_raises_when_newton_does_not_settle(monkeypatch):
    monkeypatch.setattr(count_dist, "_NEWTON_STEPS", 2)
    with pytest.raises(NumericError, match="n = 3226"):
        normal_approx(TestingSetup(3226, 0.05, THETA_BC3))


# ------------------------------------------------- CountDistribution type

def test_count_distribution_moments_and_lookup():
    setup = TestingSetup(10, 0.05)
    d = CountDistribution(setup, np.array([0.2, 0.5, 0.3]), 2, 0.0)
    assert d.mean() == pytest.approx(1.1)
    assert d.var() == pytest.approx(0.49)
    assert d.sd() == pytest.approx(0.7)
    assert d.prob(1) == 0.5
    assert d.prob(5) == 0.0
    assert d.prob(-1) == 0.0
    assert d.prob_at_most(1) == pytest.approx(0.7)
    assert d.prob_at_most(99) == pytest.approx(1.0)
    assert d.mean_error_bound() == 0.0
    with pytest.raises(ValueError):
        d.pmf[0] = 0.9  # frozen


def test_count_distribution_rejects_bad_mass():
    setup = TestingSetup(10, 0.05)
    with pytest.raises(NumericError):
        CountDistribution(setup, np.array([0.2, 0.5, 0.2]), 2, 0.0)
    with pytest.raises(NumericError):
        CountDistribution(setup, np.array([-0.1, 0.8, 0.3]), 2, 0.0)
    with pytest.raises(InputError):
        CountDistribution(setup, np.array([0.5, 0.5]), 2, 0.0)


@pytest.mark.parametrize("n, hi", [(1, 0), (7, 3), (50, 50)])
def test_binomial_pmf_at_degenerate_p(n, hi):
    at_zero = count_dist._binomial_pmf(n, 0.0, hi)
    assert at_zero.tolist() == [1.0] + [0.0] * hi
    at_one = count_dist._binomial_pmf(n, 1.0, n)  # hi = n when p = 1
    assert at_one.tolist() == [0.0] * n + [1.0]


def test_poisson_pmf_at_mean_zero():
    pmf = count_dist._poisson_pmf(0.0, count_dist._log_factorials(5))
    assert pmf.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_uniform_exact_survival_base_stays_positive_below_n(n):
    # alpha < 1 gives 1 - (k+1) alpha / n > 0 for every k < n, so no count
    # below n is zero by the survival factor, even at the largest alpha
    alpha = math.nextafter(1.0, 0.0)
    a = Fraction(alpha)
    for k in (n - 1, n):
        exact = (math.comb(n, k) * (k + 1) ** max(k - 1, 0) * (a / n) ** k
                 * (1 - (k + 1) * a / n) ** (n - k))
        assert bh_pmf_uniform_exact(n, alpha, k) == float(exact) > 0.0
