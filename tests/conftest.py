"""Shared fixtures: fitted parameter vectors used across the suite.

The three theta vectors are the fitted log-polynomial coefficients for
the breast-cancer (n = 3226), TCGA (n = 20068), and Huang pilot
(n = 48803) p-value sets; SIG_BC3 holds the reported standard errors
that drive the latent-dependence scenarios.
"""
import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from fdrdist import ThetaParams, random_theta

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

THETA_BC3 = ThetaParams(3, (0.158, 0.0492, 0.0201))
SIG_BC3 = (0.084, 0.0506, 0.0075)
THETA_TCGA = ThetaParams(4, (0.100, 0.0761, 0.000493, 0.00195))
THETA_HUANG = ThetaParams(3, (0.0524, 0.00983, 0.00327))

# theta_0 < 1e-3 with the top weight u_I = I! theta_I dominant, orders 2-6:
# draws of the former top-down sampler, which put most of its mass here
BOUNDARY_THETAS = (
    ThetaParams(2, (0.0017973404269486892, 0.4986498373052881)),
    ThetaParams(3, (0.132928039775436, 0.12144051301071215, 0.10391873874875399)),
    ThetaParams(4, (0.00013029997909014542, 0.002020471384982777,
                    0.002365053433454203, 0.04089742373360761)),
    ThetaParams(5, (0.000299385801116447, 0.002430702701898707,
                    0.0143430250450634, 0.0065298240188836395,
                    0.006264680263449263)),
    ThetaParams(6, (0.00011566190981039354, 0.0010611243085148574,
                    0.0018468193882931554, 3.7951763042494e-05,
                    0.00020562522404128221, 0.0013335269840398986)),
)


def thetas(min_order: int, max_order: int):
    """Hypothesis strategy: ``random_theta`` at an order in [min_order,
    max_order] from a drawn seed, or a BOUNDARY_THETAS vector of such an
    order."""
    drawn = st.builds(
        lambda order, seed: random_theta(order, np.random.default_rng(seed)),
        st.integers(min_value=min_order, max_value=max_order),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    fixed = [t for t in BOUNDARY_THETAS if min_order <= t.order <= max_order]
    return st.one_of(drawn, st.sampled_from(fixed)) if fixed else drawn
