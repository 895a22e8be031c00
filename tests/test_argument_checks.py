"""The argument contract: every public entry point reads its numbers
through the converters of ``fdrdist.psi_dist``, so a value that is not a
number (a string, even a numeric one, None, a list) raises InputError
rather than a TypeError, ValueError or AttributeError from deep inside.
Range faults keep their own classes (ConstraintError for gamma < 1, NaN
and inf)."""
import math

import numpy as np
import pytest

from conftest import THETA_BC3, THETA_HUANG
from fdrdist import (
    BetaParams,
    ConstraintError,
    GumbelCopula,
    InputError,
    Latent,
    SimConfig,
    TestingSetup,
    ThetaParams,
    bh_count,
    bh_count_step_up,
    bh_pmf,
    bh_pmf_uniform_exact,
    bonferroni_count,
    bonferroni_pmf,
    bonferroni_pmf_copula,
    bonferroni_poisson,
    borel_limit_param,
    borel_tanner_mean,
    borel_tanner_pmf,
    borel_tanner_var,
    cdf,
    density,
    empirical_count_distribution,
    fit,
    gumbel_diagonal,
    latent_bh_pmf,
    latent_pvalue_correlation,
    log_likelihood,
    mix,
    moment,
    normal_approx,
    perturbed_pair,
    positive_stable,
    power_table,
    quantile,
    random_theta,
    require_valid,
    sample_pvalues,
    scale_theta,
    select_order,
    u_k,
    validate_theta,
)

_SETUP = TestingSetup(50, 0.05, THETA_BC3)
_DIST = bh_pmf(_SETUP)
_P = np.linspace(0.01, 1.0, 50)
_U = ThetaParams.uniform()


def _rng():
    return np.random.default_rng(0)


def _table(pilot_n=78, n_tests=100, alpha=0.05, n_values=(78,), z_values=(0.0,),
           tail_tol=1e-9):
    return power_table(THETA_HUANG, pilot_n, n_tests, alpha, n_values, z_values,
                       tail_tol)


# one numeric argument per entry: the callable puts v in that argument,
# every other argument valid; sequence arguments get v as one entry
ENTRY_POINTS = {
    "ThetaParams.order": lambda v: ThetaParams(v, ()),
    "ThetaParams.coeffs": lambda v: ThetaParams(2, (0.1, v)),
    "BetaParams.order": lambda v: BetaParams(v, ()),
    "BetaParams.coeffs": lambda v: BetaParams(1, (v,)),
    "ThetaParams.uniform": lambda v: ThetaParams.uniform(v),
    "ThetaParams.padded": lambda v: THETA_BC3.padded(v),
    "validate_theta": lambda v: validate_theta(v),
    "require_valid": lambda v: require_valid(v),
    "quantile.q": lambda v: quantile(v, THETA_BC3),
    "quantile.tol": lambda v: quantile(0.5, THETA_BC3, tol=v),
    "moment": lambda v: moment(v, THETA_BC3),
    "mix.weights": lambda v: mix([THETA_BC3], [v]),
    "random_theta": lambda v: random_theta(v, _rng()),
    "TestingSetup.n": lambda v: TestingSetup(v, 0.05),
    "TestingSetup.alpha": lambda v: TestingSetup(5, v),
    "TestingSetup.marginal": lambda v: TestingSetup(5, 0.05, v),
    "CountDistribution.prob": lambda v: _DIST.prob(v),
    "CountDistribution.prob_at_most": lambda v: _DIST.prob_at_most(v),
    "bh_count": lambda v: bh_count([0.01, 0.5], v),
    "bh_count_step_up": lambda v: bh_count_step_up([0.01, 0.5], v),
    "bonferroni_count": lambda v: bonferroni_count([0.01, 0.5], v),
    "u_k": lambda v: u_k(_SETUP, v),
    "bh_pmf.tail_tol": lambda v: bh_pmf(_SETUP, v),
    "bh_pmf.k_max": lambda v: bh_pmf(_SETUP, k_max=v),
    "bh_pmf_uniform_exact.n": lambda v: bh_pmf_uniform_exact(v, 0.05, 1),
    "bh_pmf_uniform_exact.alpha": lambda v: bh_pmf_uniform_exact(5, v, 1),
    "bh_pmf_uniform_exact.k": lambda v: bh_pmf_uniform_exact(5, 0.05, v),
    "borel_tanner_pmf.alpha": lambda v: borel_tanner_pmf(v, 1),
    "borel_tanner_pmf.k": lambda v: borel_tanner_pmf(0.05, v),
    "borel_tanner_mean": lambda v: borel_tanner_mean(v),
    "borel_tanner_var": lambda v: borel_tanner_var(v),
    "borel_limit_param": lambda v: borel_limit_param(THETA_BC3, v),
    "bonferroni_pmf": lambda v: bonferroni_pmf(_SETUP, v),
    "bonferroni_poisson": lambda v: bonferroni_poisson(_SETUP, v),
    "GumbelCopula": lambda v: GumbelCopula(v),
    "Latent": lambda v: Latent((0.0, v)),
    "perturbed_pair": lambda v: perturbed_pair(THETA_BC3, (0.0, 0.0, v)),
    "gumbel_diagonal.p_star": lambda v: gumbel_diagonal(v, 2, 1.5),
    "gumbel_diagonal.m": lambda v: gumbel_diagonal(0.5, v, 1.5),
    "gumbel_diagonal.gamma": lambda v: gumbel_diagonal(0.5, 2, v),
    "bonferroni_pmf_copula.gamma": lambda v: bonferroni_pmf_copula(_SETUP, v),
    "bonferroni_pmf_copula.tail_tol":
        lambda v: bonferroni_pmf_copula(_SETUP, 1.3, v),
    "bonferroni_pmf_copula.k_max":
        lambda v: bonferroni_pmf_copula(_SETUP, 1.3, k_max=v),
    "latent_bh_pmf.eps": lambda v: latent_bh_pmf(_SETUP, (0.0, 0.0, v)),
    "latent_bh_pmf.tail_tol": lambda v: latent_bh_pmf(_SETUP, (0.0,) * 3, v),
    "latent_pvalue_correlation":
        lambda v: latent_pvalue_correlation(THETA_BC3, (0.0, 0.0, v)),
    "SimConfig.n_tests": lambda v: SimConfig(v, 5, _U, 0.05, 1),
    "SimConfig.replicates": lambda v: SimConfig(5, v, _U, 0.05, 1),
    "SimConfig.marginal": lambda v: SimConfig(5, 5, v, 0.05, 1),
    "SimConfig.alpha": lambda v: SimConfig(5, 5, _U, v, 1),
    "SimConfig.seed": lambda v: SimConfig(5, 5, _U, 0.05, v),
    "positive_stable.gamma": lambda v: positive_stable(v, _rng(), 4),
    "positive_stable.size": lambda v: positive_stable(1.5, _rng(), v),
    "scale_theta.n_subjects": lambda v: scale_theta(THETA_HUANG, v, 78),
    "scale_theta.pilot_n": lambda v: scale_theta(THETA_HUANG, 78, v),
    "power_table.pilot_n": lambda v: _table(pilot_n=v),
    "power_table.n_tests": lambda v: _table(n_tests=v),
    "power_table.alpha": lambda v: _table(alpha=v),
    "power_table.n_values": lambda v: _table(n_values=[v]),
    "power_table.z_values": lambda v: _table(z_values=[v]),
    "power_table.tail_tol": lambda v: _table(tail_tol=v),
    "fit.order": lambda v: fit(_P, v),
    "select_order.max_order": lambda v: select_order(_P, v),
}


# None is k_max's default, the unforced cut, so it is not a fault there
_OPTIONAL = ("bh_pmf.k_max", "bonferroni_pmf_copula.k_max")


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{shown}")
    for name, call in ENTRY_POINTS.items()
    for value, shown in (("1", "str"), (None, "None"), ([1], "list"))
    if not (value is None and name in _OPTIONAL)
])
def test_non_numbers_are_input_errors(call, value):
    with pytest.raises(InputError):
        call(value)


# calls that once raised TypeError, ValueError, AttributeError or
# IndexError, kept verbatim, and numeric strings and ints past float range
ESCAPES = {
    "bh_pmf.str": lambda: bh_pmf(_SETUP, "1e-9"),
    "bh_pmf.None": lambda: bh_pmf(_SETUP, None),
    "power_table.tail_tol": lambda: _table(tail_tol="x"),
    "GumbelCopula.str": lambda: GumbelCopula("2"),
    "GumbelCopula.None": lambda: GumbelCopula(None),
    "bonferroni_pmf_copula": lambda: bonferroni_pmf_copula(_SETUP, "x"),
    "gumbel_diagonal": lambda: gumbel_diagonal(0.5, 2, "x"),
    "quantile.tol": lambda: quantile(0.5, THETA_BC3, tol="x"),
    "Latent.int": lambda: Latent(5),
    "Latent.str": lambda: Latent(("a",)),
    "ThetaParams": lambda: ThetaParams(1, ("x",)),
    "perturbed_pair": lambda: perturbed_pair(THETA_BC3, ("a", "b", "c")),
    "mix": lambda: mix([THETA_BC3], ["a"]),
    "TestingSetup": lambda: TestingSetup(5, 0.05, None),
    "SimConfig": lambda: SimConfig(5, 5, None, 0.05, 1),
    "validate_theta": lambda: validate_theta(None),
    "prob": lambda: _DIST.prob(2.5),
    "prob_at_most": lambda: _DIST.prob_at_most(2.5),
    "numeric_string_eps": lambda: Latent(("0.1",)),
    "numeric_string_weight": lambda: mix([THETA_BC3], ["1"]),
    "numeric_string_theta": lambda: ThetaParams(1, ("0.1",)),
    "alpha_past_float_range": lambda: TestingSetup(5, 10**400),
    "tail_tol_past_float_range": lambda: bh_pmf(_SETUP, 10**400),
    "eps_past_float_range": lambda: Latent((10**400,)),
}


@pytest.mark.parametrize("call", ESCAPES.values(), ids=ESCAPES.keys())
def test_former_escapes_are_input_errors(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("gamma", [0.5, math.nan, math.inf, -math.inf])
def test_gamma_out_of_range_stays_a_constraint_error(gamma):
    for call in (GumbelCopula, lambda g: gumbel_diagonal(0.5, 2, g),
                 lambda g: bonferroni_pmf_copula(_SETUP, g)):
        with pytest.raises(ConstraintError, match="gamma must be finite"):
            call(gamma)


def test_prob_at_most_is_zero_below_zero():
    dist = bh_pmf(TestingSetup(50, 0.05, THETA_BC3))
    for k in (-1, -2, -5, -10**400):
        assert dist.prob_at_most(k) == 0.0
        assert dist.prob(k) == 0.0
    assert dist.prob_at_most(2.0) == dist.prob_at_most(2) == float(dist.pmf[:3].sum())
    assert dist.prob(np.int64(2)) == dist.prob(2.0) == float(dist.pmf[2])
    assert dist.prob_at_most(10**400) == float(dist.pmf.sum())
    for k in (2.5, math.nan, math.inf):
        with pytest.raises(InputError, match="k must be an integer"):
            dist.prob(k)
        with pytest.raises(InputError, match="k must be an integer"):
            dist.prob_at_most(k)


def test_alpha_is_stored_as_a_python_float():
    a32 = np.float32(0.05)
    setup = TestingSetup(3226, a32, THETA_BC3)
    assert type(setup.alpha) is float and setup.alpha == float(a32)
    same = TestingSetup(3226, float(a32), THETA_BC3)
    assert normal_approx(setup) == normal_approx(same)  # bit for bit
    cfg = SimConfig(5, 5, _U, a32, 1)
    assert type(cfg.alpha) is float and cfg.alpha == float(a32)
    assert type(GumbelCopula(np.float32(2.0)).gamma) is float


@pytest.mark.parametrize("call", [
    lambda m: TestingSetup(50, 0.05, m),
    lambda m: SimConfig(5, 5, m, 0.05, 1),
    lambda m: validate_theta(m),
    lambda m: require_valid(m),
], ids=["TestingSetup", "SimConfig", "validate_theta", "require_valid"])
def test_only_theta_params_are_marginals(call):
    # a BetaParams holds CDF-side coefficients; read as theta it would be
    # a different law
    with pytest.raises(InputError, match="expected ThetaParams, got BetaParams"):
        call(BetaParams(3, (0.158, 0.0492, 0.0201)))


# p-value vectors numpy cannot convert, verbatim: each once escaped as the
# plain ValueError of np.asarray
PVALUE_ESCAPES = {
    "bh_count": lambda: bh_count(["a"], 0.05),
    "fit": lambda: fit(["a"] * 20, 1),
    "log_likelihood": lambda: log_likelihood(["a"], THETA_BC3),
    "cdf": lambda: cdf("x", THETA_BC3),
    "density": lambda: density(["a"], THETA_BC3),
}


@pytest.mark.parametrize("call", PVALUE_ESCAPES.values(), ids=PVALUE_ESCAPES.keys())
def test_pvalue_non_numbers_are_input_errors(call):
    with pytest.raises(InputError, match="^p-value at index 0 is not a number$"):
        call()


@pytest.mark.parametrize("count", [bh_count, bh_count_step_up, bonferroni_count])
def test_pvalue_message_names_the_first_non_number(count):
    # the index of the first entry that is not a number, not the argument
    pvalues = [0.01] * 1000 + ["a", None, "b"]
    with pytest.raises(InputError) as info:
        count(pvalues, 0.05)
    assert str(info.value) == "p-value at index 1000 is not a number"
    with pytest.raises(InputError, match="^p-value at index 1 is not a number$"):
        count([0.01, [0.02, 0.03]], 0.05)
    with pytest.raises(InputError, match="^p-value at index 0 is not a number$"):
        count(object(), 0.05)


def test_cdf_and_density_range_faults_come_from_checked_pvalues():
    # the same messages as the count and fit entry points, at the flat index
    with pytest.raises(InputError, match=r"^p-value at index 0 is 1\.5, outside \[0, 1\]$"):
        cdf(1.5, THETA_BC3)
    with pytest.raises(InputError, match=r"^p-value at index 3 is -0\.1, outside \[0, 1\]$"):
        cdf(np.array([[0.1, 0.2], [0.3, -0.1]]), THETA_BC3)
    with pytest.raises(InputError, match=r"^p-value at index 1 is 0\.0, outside \(0, 1\]$"):
        density([0.5, 0.0], THETA_BC3)
    with pytest.raises(InputError, match="^p-value at index 0 is not finite: nan$"):
        cdf(math.nan, THETA_BC3)


def test_pvalue_messages_print_plain_floats():
    # no numpy 2 scalar reprs such as np.float64(1.5)
    with pytest.raises(InputError) as info:
        bh_count([0.5, 1.5], 0.05)
    assert str(info.value) == "p-value at index 1 is 1.5, outside [0, 1]"
    with pytest.raises(InputError) as info:
        fit([0.0] * 20 + [0.5], 1)
    assert str(info.value) == "p-value at index 0 is 0.0, outside (0, 1]"
    with pytest.raises(InputError) as info:
        log_likelihood(np.array([0.5, np.inf]), THETA_BC3)
    assert str(info.value) == "p-value at index 1 is not finite: inf"


# the functions that take a TestingSetup or a SimConfig, each with a
# wrong object in its place; all of them once raised AttributeError
PARAMETER_OBJECTS = {
    "bh_pmf": (lambda s: bh_pmf(s), "TestingSetup"),
    "u_k": (lambda s: u_k(s, 1), "TestingSetup"),
    "bonferroni_pmf": (lambda s: bonferroni_pmf(s), "TestingSetup"),
    "bonferroni_poisson": (lambda s: bonferroni_poisson(s), "TestingSetup"),
    "normal_approx": (lambda s: normal_approx(s), "TestingSetup"),
    "bonferroni_pmf_copula": (lambda s: bonferroni_pmf_copula(s, 1.3), "TestingSetup"),
    "latent_bh_pmf": (lambda s: latent_bh_pmf(s, (0.0,) * 3), "TestingSetup"),
    "sample_pvalues": (lambda c: sample_pvalues(c), "SimConfig"),
    "empirical_count_distribution":
        (lambda c: empirical_count_distribution(c), "SimConfig"),
}


@pytest.mark.parametrize("call, kind", [
    pytest.param(call, kind, id=name) for name, (call, kind) in PARAMETER_OBJECTS.items()
])
@pytest.mark.parametrize("wrong, shown", [
    (None, "NoneType"), (ThetaParams.uniform(), "ThetaParams"), ("x", "str"),
])
def test_wrong_parameter_objects_are_input_errors(call, kind, wrong, shown):
    with pytest.raises(InputError, match=f"^expected {kind}, got {shown}$"):
        call(wrong)


def test_type_checks_share_one_message_form():
    with pytest.raises(InputError, match="^expected ThetaParams, got NoneType$"):
        validate_theta(None)
    with pytest.raises(InputError,
                       match="^pilot must be a FitResult or ThetaParams, got str$"):
        power_table("x", 78, 100, 0.05, (78,), (0.0,))
    with pytest.raises(InputError, match="^unsupported dependence spec, got str$"):
        SimConfig(5, 5, _U, 0.05, 1, dependence="copula")
