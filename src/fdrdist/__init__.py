"""Distributions of multiple-testing discovery counts.

Exact and asymptotic laws of the number of discoveries under the
step-down false-discovery-rate rule and the Bonferroni rule, a
log-polynomial family of p-value densities with maximum-likelihood
fitting, two exchangeable dependence models, power planning for larger
studies, and a Monte Carlo harness that cross-checks all of it.

Everything runs in double precision.  Quantities that leave double
range are returned as logs: ``u_k`` gives log U_k, the log of the
k-fold staircase integral behind the step-down pmf.
"""

from .errors import ConstraintError, FdrDistError, InputError, NumericError
from .psi_dist import (
    BetaParams,
    ThetaParams,
    ValidationReport,
    beta_to_theta,
    cdf,
    chained_upper_bound,
    density,
    mix,
    moment,
    pi0_estimate,
    quantile,
    random_theta,
    require_valid,
    theta_to_beta,
    validate_theta,
)
from .count_dist import (
    CountDistribution,
    NormalApprox,
    TestingSetup,
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
    normal_approx,
    u_k,
)
from .dependence import (
    DependenceSpec,
    GumbelCopula,
    Independent,
    Latent,
    bonferroni_pmf_copula,
    gumbel_diagonal,
    latent_bh_pmf,
    latent_pvalue_correlation,
    perturbed_pair,
)
from .mle import FitResult, fit, log_likelihood, select_order
from .power import PowerGrid, PowerRow, power_table, scale_theta
from .simulate import (
    EmpiricalCountDistribution,
    SimConfig,
    empirical_count_distribution,
    positive_stable,
    sample_pvalues,
)

__version__ = "1.0.0"

__all__ = [
    "BetaParams",
    "ConstraintError",
    "CountDistribution",
    "DependenceSpec",
    "EmpiricalCountDistribution",
    "FdrDistError",
    "FitResult",
    "GumbelCopula",
    "Independent",
    "InputError",
    "Latent",
    "NormalApprox",
    "NumericError",
    "PowerGrid",
    "PowerRow",
    "SimConfig",
    "TestingSetup",
    "ThetaParams",
    "ValidationReport",
    "beta_to_theta",
    "bh_count",
    "bh_count_step_up",
    "bh_pmf",
    "bh_pmf_uniform_exact",
    "bonferroni_count",
    "bonferroni_pmf",
    "bonferroni_pmf_copula",
    "bonferroni_poisson",
    "borel_limit_param",
    "borel_tanner_mean",
    "borel_tanner_pmf",
    "borel_tanner_var",
    "cdf",
    "chained_upper_bound",
    "density",
    "empirical_count_distribution",
    "fit",
    "gumbel_diagonal",
    "latent_bh_pmf",
    "latent_pvalue_correlation",
    "log_likelihood",
    "mix",
    "moment",
    "normal_approx",
    "perturbed_pair",
    "pi0_estimate",
    "positive_stable",
    "power_table",
    "quantile",
    "random_theta",
    "require_valid",
    "sample_pvalues",
    "scale_theta",
    "select_order",
    "u_k",
    "validate_theta",
]
