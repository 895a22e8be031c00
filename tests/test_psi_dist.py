"""Log-polynomial p-value family: densities, CDFs, quantiles, moments.

Oracles: scipy quadrature in x = -log p space for normalization, CDF,
and moments; hand-computed beta coefficients for the coefficient maps;
exact rational membership of the simplex for validation; a 48-step
bisection (the package's former sampler transform) and an mpmath root
for the inverse CDF.
"""
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

from conftest import BOUNDARY_THETAS, THETA_BC3, THETA_TCGA, thetas
from fdrdist import (
    BetaParams,
    ConstraintError,
    InputError,
    NumericError,
    SimConfig,
    TestingSetup,
    ThetaParams,
    beta_to_theta,
    bh_count,
    bh_count_step_up,
    bonferroni_count,
    cdf,
    chained_upper_bound,
    density,
    fit,
    mix,
    moment,
    pi0_estimate,
    quantile,
    random_theta,
    require_valid,
    select_order,
    theta_to_beta,
    validate_theta,
)
from fdrdist.psi_dist import _beta_poly, _quantile_array
from mp_oracles import beta_mp, cdf_mp


def _valid_thetas():
    """Deterministic spread of valid parameter vectors, orders 1 to 6."""
    rng = np.random.default_rng(20240814)
    out = [ThetaParams.uniform(), THETA_BC3, THETA_TCGA]
    for order in (1, 2, 3, 4, 5):
        for _ in range(4):
            out.append(random_theta(order, rng))
    return out + list(BOUNDARY_THETAS)


def _density_x(theta):
    """psi as a function of x = -log p; integrand weight is e^-x."""
    coeffs = (theta.theta0,) + theta.coeffs

    def f(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc * math.exp(-x)

    return f


# ---------------------------------------------------------------- parameters

def test_theta0_is_one_minus_factorial_sum():
    assert THETA_BC3.theta0 == pytest.approx(0.623, abs=1e-12)
    assert ThetaParams.uniform().theta0 == 1.0


def test_theta_zero_coefficient_vectors():
    t = ThetaParams(3, (0.0, 0.0, 0.0))
    # all-zero coefficients reproduce the uniform density but fail the
    # strict-positivity rule on the leading coefficient for order >= 2
    assert t.theta0 == 1.0
    assert not validate_theta(t).valid


_FIT_P = np.linspace(0.01, 1.0, 50)


@pytest.mark.parametrize("call", [
    lambda order: ThetaParams(order, (0.0,) * 3),
    lambda order: BetaParams(order, (0.0,) * 3),
    lambda order: random_theta(order, np.random.default_rng(0)),
    lambda order: fit(_FIT_P, order),
    lambda order: select_order(_FIT_P, order),
], ids=["ThetaParams", "BetaParams", "random_theta", "fit", "select_order"])
@pytest.mark.parametrize("order", [2.5, math.nan, math.inf, -1, 171, 10**400],
                         ids=["2.5", "nan", "inf", "-1", "171", "1e400"])
def test_orders_must_be_whole_and_at_most_170(call, order):
    # 171! overflows a double, so order 171 has no weight u_171
    with pytest.raises(InputError, match="order must be an integer"):
        call(order)


_T = ThetaParams.uniform()


@pytest.mark.parametrize("call", [
    lambda v: SimConfig(v, 10, _T, 0.05, 1),
    lambda v: SimConfig(5, v, _T, 0.05, 1),
    lambda v: SimConfig(5, 10, _T, 0.05, v),
    lambda v: TestingSetup(v, 0.05),
    lambda v: ThetaParams(v, (0.0,) * 3),
    lambda v: moment(v, THETA_BC3),
    lambda v: random_theta(v, np.random.default_rng(0)),
], ids=["SimConfig.n_tests", "SimConfig.replicates", "SimConfig.seed", "TestingSetup",
        "ThetaParams", "moment", "random_theta"])
@pytest.mark.parametrize("value", ["5", None, b"5", [5], 1j],
                         ids=["str", "None", "bytes", "list", "complex"])
def test_non_numbers_are_input_errors(call, value):
    with pytest.raises(InputError, match="integer"):
        call(value)


@pytest.mark.parametrize("call", [
    lambda v: TestingSetup(5, v),
    lambda v: SimConfig(5, 5, _T, v, 1),
    lambda v: bh_count([0.01, 0.5], v),
    lambda v: bh_count_step_up([0.01, 0.5], v),
    lambda v: bonferroni_count([0.01, 0.5], v),
], ids=["TestingSetup", "SimConfig", "bh_count", "bh_count_step_up", "bonferroni_count"])
@pytest.mark.parametrize("value", ["0.05", None, b"0.05", [0.05], 1j],
                         ids=["str", "None", "bytes", "list", "complex"])
def test_non_number_alphas_are_input_errors(call, value):
    with pytest.raises(InputError, match="alpha must be a real number"):
        call(value)
    # real values keep their message
    with pytest.raises(InputError, match=r"alpha must lie in \(0, 1\), got 1.5"):
        call(1.5)


def test_numpy_integers_and_whole_floats_are_sizes():
    cfg = SimConfig(np.int64(5), np.float64(10.0), _T, 0.05, np.uint64(2**64 - 1))
    assert (cfg.n_tests, cfg.replicates, cfg.seed) == (5, 10, 2**64 - 1)
    assert TestingSetup(np.int32(5), 0.05) == TestingSetup(5, 0.05)
    assert ThetaParams(np.int8(3), (0.0,) * 3) == ThetaParams(3, (0.0,) * 3)
    assert moment(np.uint16(2), THETA_BC3) == moment(2.0, THETA_BC3) == moment(2, THETA_BC3)


def test_whole_float_order_is_an_int():
    theta = ThetaParams(2.0, (0.1, 0.1))
    assert type(theta.order) is int and theta == ThetaParams(2, (0.1, 0.1))
    assert validate_theta(theta).valid
    assert cdf(0.5, theta) == cdf(0.5, ThetaParams(2, (0.1, 0.1)))
    assert type(random_theta(3.0, np.random.default_rng(0)).order) is int
    assert fit(_FIT_P, 2.0) == fit(_FIT_P, 2)
    assert select_order(_FIT_P, 2.0) == select_order(_FIT_P, 2)
    top = ThetaParams(170, (0.0,) * 169 + (1e-310,))
    assert 0.0 < top.theta0 < 1.0
    assert validate_theta(top).valid
    assert 0.5 < cdf(0.5, top) < 1.0


def test_padded_extends_with_zeros():
    t = THETA_BC3.padded(5)
    assert t.order == 5
    assert t.coeffs == THETA_BC3.coeffs + (0.0, 0.0)
    assert t.theta0 == pytest.approx(THETA_BC3.theta0, abs=1e-15)


def test_theta_to_beta_hand_values():
    # beta_j = sum_{i >= j} theta_i i!/j!
    b = theta_to_beta(THETA_BC3)
    assert isinstance(b, BetaParams)
    assert b.beta0 == 1.0
    assert b.coeffs[0] == pytest.approx(0.377, abs=1e-12)
    assert b.coeffs[1] == pytest.approx(0.1095, abs=1e-12)
    assert b.coeffs[2] == pytest.approx(0.0201, abs=1e-15)


@pytest.mark.parametrize("theta", _valid_thetas())
def test_beta_round_trip(theta):
    back = beta_to_theta(theta_to_beta(theta))
    assert back.order == theta.order
    np.testing.assert_allclose(back.coeffs, theta.coeffs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- validation

def test_validate_accepts_fitted_vectors():
    for theta in (THETA_BC3, THETA_TCGA, ThetaParams.uniform()):
        report = validate_theta(theta)
        assert report.valid
        assert report.violations == ()
        require_valid(theta, "theta")  # does not raise


def test_validate_names_first_violation():
    report = validate_theta(ThetaParams(3, (0.158, 0.0492, 0.2)))
    assert not report.valid
    assert "theta_3" in report.first_violation()


def test_order_one_box_is_closed():
    assert validate_theta(ThetaParams(1, (0.0,))).valid
    assert validate_theta(ThetaParams(1, (1.0,))).valid
    assert not validate_theta(ThetaParams(1, (1.0 + 1e-6,))).valid
    assert not validate_theta(ThetaParams(1, (-1e-6,))).valid


def test_top_coefficient_strictly_positive_above_order_one():
    assert not validate_theta(ThetaParams(2, (0.3, 0.0))).valid
    assert validate_theta(ThetaParams(2, (0.3, 1e-9))).valid


def test_chained_upper_bound_shrinks():
    # each higher coefficient consumes part of the unit budget
    b3 = chained_upper_bound(3, (0.0, 0.0, 0.0))
    assert b3 == pytest.approx(1.0 / 6.0, rel=1e-12)
    b2 = chained_upper_bound(2, (0.0, 0.0, 0.0201))
    b2_tight = chained_upper_bound(2, (0.0, 0.0, 0.1))
    assert 0 < b2_tight < b2 < 0.5


def test_high_order_box_catches_negative_density():
    # order 5 uses the same simplex as orders <= 4; theta0 = 1 - 1.68 < 0 here
    bad = ThetaParams(5, (0.5, 0.2, 0.05, 0.01, 0.002))
    report = validate_theta(bad)
    assert not report.valid
    with pytest.raises(ConstraintError):
        require_valid(bad, "theta")


def test_high_order_box_allows_rounding_slack():
    # orders 5 and 6 take theta_0 down to -1e-12, as orders <= 4 do: this
    # theta_0 = -2.2e-16 is rounding, theta_1 one ulp above a fit on the
    # boundary sum(u) = 1
    edge = ThetaParams(6, (0.5579312537389814, 0.20026634464055168, 0.0, 0.0,
                           0.00016625771251640919, 2.99793492749254e-05))
    assert -3e-16 < edge.theta0 < 0.0
    assert validate_theta(edge).valid
    # a density that is clearly negative inside (0, 1) is still rejected,
    # at its first negative coefficient
    bad = ThetaParams(6, (0.1, 0.0, -0.05, 0.0, 0.0, 1e-5))
    assert bad.theta0 > 0.0
    report = validate_theta(bad)
    assert not report.valid
    assert "*theta_3 <=" in report.first_violation()


def test_high_order_density_negative_below_grid_is_rejected():
    # theta_0 > 0 and the density is positive and decreasing on
    # p in [1e-12, 1], but it turns negative further out: a grid over that
    # range accepted it; the simplex rejects the negative theta_5
    theta = ThetaParams(6, (0.0, 0.0, 0.0, 0.045, -0.00138, 5e-06))
    assert theta.theta0 > 0.0
    grid = np.logspace(-12, 0, 10_000)
    vals = density(grid, theta)
    assert np.all(vals >= 0.0) and np.all(np.diff(vals) <= 0.0)
    assert density(math.exp(-50.0), theta) < -7e4
    report = validate_theta(theta)
    assert not report.valid
    assert "theta_5" in report.first_violation()
    with pytest.raises(ConstraintError, match="outside the valid region"):
        TestingSetup(100, 0.05, theta)


def test_require_valid_names_argument():
    with pytest.raises(ConstraintError, match="marginal"):
        require_valid(ThetaParams(3, (0.9, 0.9, 0.9)), "marginal")


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_random_theta_always_valid(order, seed):
    theta = random_theta(order, np.random.default_rng(seed))
    assert theta.order == order
    assert validate_theta(theta).valid


@pytest.mark.parametrize("order", [2, 4, 6])
def test_random_theta_is_uniform_on_the_simplex(order):
    # uniform on the simplex, every weight u_j = j! theta_j is
    # Beta(1, I) with mean 1/(I+1) and variance I/((I+1)^2 (I+2))
    rng = np.random.default_rng(20261019)
    draws = 20_000
    fact = np.array([math.factorial(j) for j in range(1, order + 1)])
    u = np.array([random_theta(order, rng).coeffs for _ in range(draws)]) * fact
    se = math.sqrt(order / ((order + 1) ** 2 * (order + 2)) / draws)
    assert np.all(np.abs(u.mean(axis=0) - 1.0 / (order + 1)) <= 4.0 * se)


def _exact_member(theta):
    """Membership of the simplex in exact rationals: u_i = i! theta_i of
    the float coefficients, u >= 0, sum(u) <= 1, and u_I > 0 above order
    1; also returns the distance to the nearest face."""
    u = [Fraction(c) * math.factorial(i) for i, c in enumerate(theta.coeffs, start=1)]
    member = min(u, default=0) >= 0 and sum(u) <= 1
    if theta.order > 1:
        member = member and u[-1] > 0
    return member, min([abs(w) for w in u] + [abs(1 - sum(u))])


def _near_face_thetas():
    """Deterministic fuzz set: points on, inside and outside every face
    of the simplex (u_i = 0, the strict u_I > 0 above order 1, the
    order-1 interval ends and sum(u) = 1), at distances from 0 to 10
    times I! * 1e-12 and at 1e-9."""
    rng = np.random.default_rng(1019)
    out = []
    for order in range(1, 7):
        fact = np.array([math.factorial(i) for i in range(1, order + 1)], dtype=float)
        for _ in range(300):
            u = rng.dirichlet(np.ones(order + 1))[1:]
            zero = rng.random(order) < 0.4
            u[zero] = 0.0
            if rng.random() < 0.6 and not zero.all():
                u /= u.sum()
            scale = rng.choice([0.0, 1e-13, 1e-12, fact[-1] * 1e-12,
                                10 * fact[-1] * 1e-12, 1e-9])
            j = rng.integers(order)
            u[j] += scale * rng.choice([-1.0, 1.0])
            u[zero] += scale * rng.uniform(-1.0, 1.0, zero.sum())
            out.append(ThetaParams(order, tuple(u / fact)))
    return out


def test_validate_matches_exact_simplex_membership():
    # the verdict must be exact wherever rounding and the 1e-12 slack
    # cannot matter: farther than I! * 1e-12 from every face
    checked = 0
    for theta in _near_face_thetas():
        member, gap = _exact_member(theta)
        if gap > math.factorial(theta.order) * Fraction(1e-12):
            assert validate_theta(theta).valid == member, theta
            checked += 1
    assert checked > 500


# ---------------------------------------------------------- density and cdf

@pytest.mark.parametrize("theta", _valid_thetas())
def test_density_integrates_to_one(theta):
    total, err = integrate.quad(_density_x(theta), 0.0, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=max(1e-10, 10 * err))


@pytest.mark.parametrize("theta", [THETA_BC3, THETA_TCGA])
@pytest.mark.parametrize("p", [1e-12, 1e-6, 0.01, 0.2, 0.9, 1.0])
def test_cdf_matches_quadrature(theta, p):
    oracle, err = integrate.quad(_density_x(theta), -math.log(p), np.inf, limit=200)
    assert cdf(p, theta) == pytest.approx(oracle, rel=1e-9, abs=10 * err)


def test_density_at_one_is_theta0():
    assert density(1.0, THETA_BC3) == THETA_BC3.theta0


def test_density_vectorized_and_positive():
    p = np.logspace(-12, 0, 2000)
    vals = density(p, THETA_BC3)
    assert vals.shape == p.shape
    assert np.all(vals > 0)
    # nonnegative coefficients in -log p make the density nonincreasing in p
    assert np.all(np.diff(vals) <= 1e-12)


def test_density_domain_errors():
    with pytest.raises(InputError):
        density(0.0, THETA_BC3)
    with pytest.raises(InputError):
        density(1.5, THETA_BC3)
    with pytest.raises(InputError):
        density(np.array([0.5, np.nan]), THETA_BC3)


def test_cdf_domain_and_endpoints():
    assert cdf(0.0, THETA_BC3) == 0.0
    assert cdf(1.0, THETA_BC3) == 1.0
    with pytest.raises(InputError):
        cdf(-0.1, THETA_BC3)
    with pytest.raises(InputError):
        cdf(1.1, THETA_BC3)


@pytest.mark.parametrize("theta", _valid_thetas())
def test_cdf_monotone_and_concave(theta):
    p = np.linspace(1e-9, 1.0, 500)
    vals = cdf(p, theta)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-15)
    # increments of a concave CDF shrink as p grows
    assert np.all(np.diff(diffs) <= 1e-12)


def test_cdf_dominates_uniform():
    p = np.logspace(-10, 0, 200)
    assert np.all(cdf(p, THETA_BC3) >= p - 1e-15)


def test_cdf_tiny_arguments_match_extended_precision():
    # below 1e-300 the product is formed in log space, exp(-x + log B(x));
    # it must still give a positive value consistent with the polynomial
    for p in (1e-310, 1e-305, 1e-301):
        val = cdf(p, THETA_BC3)
        direct = float(cdf_mp(p, beta_mp(THETA_BC3), 256))
        assert val > 0.0
        assert val == pytest.approx(direct, rel=1e-12)
    arr = cdf(np.array([0.0, 1e-310, 0.5]), THETA_BC3)
    assert arr[0] == 0.0
    assert arr[1] == cdf(1e-310, THETA_BC3)
    assert arr[2] == cdf(0.5, THETA_BC3)


def test_cdf_breast_example_value():
    # Psi at alpha/n for the breast-cancer parameters; regression pin
    val = cdf(0.05 / 3226, THETA_BC3)
    assert val == pytest.approx(7.115218e-4, rel=1e-6)
    assert round(val, 6) == 7.12e-4


# ------------------------------------------------------------------ inverse

@pytest.mark.parametrize("q", [1e-12, 1e-6, 0.01, 0.3, 0.777, 0.999999])
def test_quantile_round_trip(q):
    p = quantile(q, THETA_BC3)
    assert cdf(p, THETA_BC3) == pytest.approx(q, abs=1e-12)


@pytest.mark.parametrize("p", [1e-8, 1e-3, 0.05, 0.5, 0.99])
def test_quantile_inverts_cdf(p):
    assert quantile(cdf(p, THETA_BC3), THETA_BC3) == pytest.approx(p, rel=1e-9)


def test_quantile_endpoints_and_domain():
    assert quantile(0.0, THETA_BC3) == 0.0
    assert quantile(1.0, THETA_BC3) == 1.0
    assert quantile(0.25, ThetaParams.uniform()) == 0.25
    with pytest.raises(InputError):
        quantile(-0.01, THETA_BC3)
    with pytest.raises(InputError):
        quantile(1.01, THETA_BC3)
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(InputError, match="tol"):
            quantile(0.3, THETA_BC3, tol=tol)
    assert quantile(0.3, THETA_BC3, tol=0.1) == quantile(0.3, THETA_BC3)


def test_quantile_array_matches_scalar():
    rng = np.random.default_rng(5)
    u = rng.uniform(size=200)
    vec = _quantile_array(u, THETA_BC3)
    scal = np.array([quantile(q, THETA_BC3) for q in u])
    np.testing.assert_allclose(vec, scal, rtol=1e-9)


def test_quantile_array_uniform_passthrough():
    u = np.array([0.1, 0.9, 0.5])
    out = _quantile_array(u, ThetaParams.uniform())
    np.testing.assert_array_equal(out, u)
    assert out is not u


def _bisect_quantile(u, theta, iters=48):
    """Inverse CDF by 48 halvings of x = -log p on [0, 745]: x to within
    745 / 2^49 = 1.3e-12, so p to that relative error, wherever the CDF
    comparison itself is well conditioned.  The comparison is made in
    logs, -x + log B(x) > log u: the product e^-x B(x) is subnormal for
    u near 5e-324 and would misplace the root by a whole subnormal step."""
    if all(c == 0.0 for c in theta.coeffs):
        return u.copy()
    beta = _beta_poly(theta)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    lo = np.zeros_like(u)
    width = 745.0
    for _ in range(iters):
        width *= 0.5
        mid = lo + width
        val = np.full_like(u, beta[-1])
        for c in beta[-2::-1]:
            val = val * mid + c
        lo += np.where(np.log(val) - mid > log_u, width, 0.0)
    return np.exp(-(lo + 0.5 * width))


def _mp_quantile(u, theta):
    """Root of e^-x B(x) = u by bisection at 200 bits."""
    with mpmath.workprec(200):
        beta = beta_mp(theta)
        lo, hi = mpmath.mpf(0), mpmath.mpf(745)
        for _ in range(300):
            mid = (lo + hi) / 2
            if cdf_mp(mpmath.exp(-mid), beta) > u:
                lo = mid
            else:
                hi = mid
        return float(mpmath.exp(-lo))


EDGE_U = np.array([0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0])
EDGE_THETAS = {
    "breast": THETA_BC3,
    "tcga": THETA_TCGA,
    "theta0-zero": ThetaParams(2, (0.2, 0.4)),
    "theta1-near-one": ThetaParams(1, (0.999,)),
    "half": ThetaParams(1, (0.5,)),
}


@pytest.mark.parametrize("name", sorted(EDGE_THETAS))
def test_quantile_array_edges_match_bisection(name):
    theta = EDGE_THETAS[name]
    got = _quantile_array(EDGE_U, theta)
    want = _bisect_quantile(EDGE_U, theta)
    if name == "theta0-zero":
        # psi(1) = theta_0 = 0, so near u = 1 the root moves by ~1e-8 per
        # rounding of the CDF: the bisection's double-precision comparison
        # is 8.6e-9 off there, and that point is checked at 200 bits
        top = EDGE_U == 1.0 - 2.0**-53
        assert got[top][0] == pytest.approx(_mp_quantile(EDGE_U[top][0], theta),
                                             rel=1e-11)
        got, want = got[~top], want[~top]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)
    # u = 0 maps to the smallest positive double, as the bisection does
    assert got[0] == math.ulp(0.0)


@given(thetas(1, 4), st.integers(min_value=0, max_value=2**32 - 1))
# u = 5e-324: the root is 3.5e-324
@example(theta=ThetaParams(1, (0.0005471879210481312,)), seed=1243827)
def test_quantile_array_matches_bisection_random_theta(theta, seed):
    rng = np.random.default_rng(seed)
    u = np.concatenate([rng.uniform(size=64), [0.0, 5e-324, 1e-300, 1e-17, 0.5, 1.0]])
    np.testing.assert_allclose(_quantile_array(u, theta), _bisect_quantile(u, theta),
                               rtol=1e-11, atol=0.0)


def test_quantile_array_keeps_shape():
    u = np.random.default_rng(9).uniform(size=(70, 1000))
    u[0, :4] = (0.0, 1.0, 5e-324, 1.0 - 2.0**-53)
    out = _quantile_array(u, ThetaParams(2, (0.2, 0.4)))
    assert out.shape == u.shape
    assert not np.isnan(out).any()
    np.testing.assert_array_equal(out.ravel(),
                                  _quantile_array(u.ravel(), ThetaParams(2, (0.2, 0.4))))


# ------------------------------------------------------------------ moments

@pytest.mark.parametrize("j", [1, 2, 5])
@pytest.mark.parametrize("theta", [THETA_BC3, THETA_TCGA, ThetaParams.uniform()])
def test_moment_matches_quadrature(j, theta):
    f = _density_x(theta)
    oracle, err = integrate.quad(lambda x: math.exp(-j * x) * f(x), 0.0, np.inf, limit=200)
    assert moment(j, theta) == pytest.approx(oracle, rel=1e-10, abs=10 * err)


def test_moment_rejects_bad_order():
    with pytest.raises(InputError):
        moment(0, THETA_BC3)
    with pytest.raises(InputError):
        moment(1.5, THETA_BC3)
    for j in (math.nan, math.inf, 2**53 + 1, 10**400):
        with pytest.raises(InputError, match="moment order"):
            moment(j, THETA_BC3)


@pytest.mark.parametrize("order, j", [(40, 2**53), (170, 10), (170, 2**53), (6, 10**12)])
def test_moment_at_powers_past_the_float_range(order, j):
    # (j+1)^(order+1) is past the float range for all but the last case;
    # the oracle is the exact rational sum, rounded once
    theta = ThetaParams(order, (0.0,) * (order - 1) + (0.5 / math.factorial(order),))
    weights = [Fraction(theta.theta0)] + [
        Fraction(math.factorial(i) * c) for i, c in enumerate(theta.coeffs, start=1)]
    exact = float(sum(u / (j + 1) ** (i + 1) for i, u in enumerate(weights)))
    assert moment(j, theta) == pytest.approx(exact, rel=1e-15, abs=0.0)


# ------------------------------------------------------------------ mixture

def test_mix_is_coefficient_average():
    m = mix([THETA_BC3, ThetaParams.uniform()], [0.5, 0.5])
    assert m.order == 3
    np.testing.assert_allclose(m.coeffs, np.asarray(THETA_BC3.coeffs) / 2, rtol=0, atol=1e-15)
    # closure: the mixture mean is the weighted mean of component means
    assert moment(1, m) == pytest.approx(0.5 * moment(1, THETA_BC3) + 0.25, abs=1e-14)


def test_mix_weight_validation():
    with pytest.raises(InputError):
        mix([THETA_BC3], [0.5, 0.5])
    with pytest.raises(InputError):
        mix([THETA_BC3, THETA_BC3], [0.7, 0.7])
    with pytest.raises(InputError):
        mix([THETA_BC3, THETA_BC3], [1.5, -0.5])


def test_pi0_estimate_is_theta0():
    assert pi0_estimate(THETA_BC3) == THETA_BC3.theta0
    assert pi0_estimate(ThetaParams.uniform()) == 1.0


def test_coefficient_count_must_match_order():
    with pytest.raises(InputError, match="^ThetaParams expects 2 coefficients, got 1$"):
        ThetaParams(2, (0.1,))


def test_cdf_and_density_keep_any_shape():
    grid = np.array([[0.0, 0.25], [0.5, 1.0]])
    out = cdf(grid, THETA_BC3)
    assert out.shape == (2, 2)
    assert out.tolist() == [[cdf(v, THETA_BC3) for v in row] for row in grid.tolist()]
    assert cdf(np.array(0.5), THETA_BC3).shape == ()
    assert type(cdf(np.float64(0.5), THETA_BC3)) is float
    assert cdf([0.5], THETA_BC3).tolist() == [cdf(0.5, THETA_BC3)]
    cube = np.full((2, 1, 3), 0.5)
    assert density(cube, THETA_BC3).shape == (2, 1, 3)
    assert density(1, THETA_BC3) == THETA_BC3.theta0
    empty = density([], THETA_BC3)
    assert isinstance(empty, np.ndarray) and empty.size == 0
