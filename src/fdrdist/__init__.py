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

from . import count_dist, dependence, errors, mle, power, psi_dist, simulate
from .errors import *
from .psi_dist import *
from .count_dist import *
from .dependence import *
from .mle import *
from .power import *
from .simulate import *

__version__ = "1.0.0"

__all__ = [
    name
    for module in (errors, psi_dist, count_dist, dependence, mle, power, simulate)
    for name in module.__all__
]
