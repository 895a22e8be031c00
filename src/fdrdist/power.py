"""Power planning from pilot-study parameters.

Signal strength in the fitted family scales with the square root of the
subject sample size, so a pilot fit at N_0 subjects extrapolates to a
planned study of N subjects by multiplying every coefficient by
(N / N_0)^(1/2).  Sweeping a grid of sample sizes and latent-dependence
levels z (with perturbation eps = z * theta(N)) gives, per cell, the
expected number of discoveries, the probability of at least one, and
the induced pairwise p-value correlation.

Scaling can push the coefficients out of the valid region; that is a
hard error naming the violated bound, not a warning, because power
figures for an invalid density would be meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintError, InputError
from .psi_dist import ThetaParams, _instance, _reals, _whole, require_valid
from .count_dist import TestingSetup, _check_tail_tol
from .dependence import latent_bh_pmf, latent_pvalue_correlation

__all__ = ["PowerRow", "PowerGrid", "scale_theta", "power_table"]


@dataclass(frozen=True)
class PowerRow:
    """One grid cell.  ``expected_bh_error`` bounds the mean error due to
    pmf truncation (tail mass times the number of tests)."""

    n_subjects: int
    z: float
    correlation: float
    expected_bh: float
    prob_bh_positive: float
    expected_bh_error: float


@dataclass(frozen=True)
class PowerGrid:
    """Full power table, rows ordered N-major then z-minor."""

    pilot_theta: ThetaParams
    pilot_n: int
    n_tests: int
    alpha: float
    n_values: tuple
    z_values: tuple
    rows: tuple


_SIZES = "sample sizes must lie in [1, 2^53] and be integers"


def scale_theta(pilot_theta: ThetaParams, n_subjects: int,
                pilot_n: int) -> ThetaParams:
    """theta(N) = (N / pilot_N)^(1/2) * pilot theta, validated after
    scaling."""
    factor = math.sqrt(_whole(n_subjects, _SIZES + " (N)")
                       / _whole(pilot_n, _SIZES + " (pilot_N)"))
    scaled = ThetaParams(
        pilot_theta.order, tuple(factor * c for c in pilot_theta.coeffs)
    )
    return require_valid(scaled, f"theta scaled to N={n_subjects} subjects")


def power_table(pilot, pilot_n: int, n_tests: int, alpha: float,
                n_values, z_values, tail_tol: float = 1e-9) -> PowerGrid:
    """Evaluate the (N, z) grid.

    ``pilot`` may be a fit result (its theta_hat is used) or a parameter
    vector.  Sample sizes must be integers in [1, 2^53] and z values
    finite and nonnegative.  Infeasible cells fail with the offending (N, z) named.
    """
    theta = _instance(getattr(pilot, "theta_hat", pilot), ThetaParams,
                      "pilot must be a FitResult or ThetaParams")
    _check_tail_tol(tail_tol)
    z_values = _reals(z_values, "z values must be finite")
    try:
        n_values = tuple(n_values)
        n_values = tuple(_whole(v, _SIZES) for v in n_values)
        pilot_n = _whole(pilot_n, _SIZES)
    except (InputError, TypeError):
        raise InputError(f"{_SIZES}, got n_values={n_values}, "
                         f"pilot_n={pilot_n}") from None
    if not n_values or not z_values:
        raise InputError("n_values and z_values must both be nonempty")
    if any(z < 0 for z in z_values):
        raise InputError(f"z values must be nonnegative, got {z_values}")
    rows = []
    for n_subj in n_values:
        scaled = scale_theta(theta, n_subj, pilot_n)
        setup = TestingSetup(n_tests, alpha, scaled)
        for z in z_values:
            eps = tuple(z * c for c in scaled.coeffs)
            try:
                dist = latent_bh_pmf(setup, eps, tail_tol)
                corr = latent_pvalue_correlation(scaled, eps)
            except ConstraintError as exc:
                raise ConstraintError(
                    f"grid cell N={n_subj}, z={z} is infeasible: {exc}"
                ) from exc
            rows.append(PowerRow(
                n_subjects=n_subj,
                z=float(z),
                correlation=corr,
                expected_bh=dist.mean(),
                prob_bh_positive=1.0 - dist.prob(0),
                expected_bh_error=dist.mean_error_bound(),
            ))
    return PowerGrid(
        pilot_theta=theta,
        pilot_n=pilot_n,
        n_tests=int(n_tests),
        alpha=float(alpha),
        n_values=n_values,
        z_values=z_values,
        rows=tuple(rows),
    )
