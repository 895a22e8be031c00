"""Maximum-likelihood fitting of the log-polynomial p-value family.

With x = -log p, an order-I density is 1 + sum_j theta_j (x^j - j!),
linear in the coefficients, so the log-likelihood is concave.  The valid
region used here is the chained box theta_i >= 0,
sum_{j>=i} j! theta_j <= 1; in the mixture weights u_j = j! theta_j it
is the simplex u >= 0, sum(u) <= 1.  One SLSQP solve over that simplex,
with the analytic gradient and from a single interior start, reaches the
global maximum, since a concave function has no other local maxima.
For orders >= 2 the top coefficient stays at or above the smallest
normal float, because the order is defined by theta_I > 0; order 1
keeps the closed interval [0, 1].

Standard errors come from the exact observed information, the Hessian
sum v v^T / f^2 of the negative log-likelihood.  Coefficients within
1e-8 of a constraint are reported exactly on it and flagged as active,
since curvature-based errors are not trustworthy there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .errors import InputError, NumericError
from .psi_dist import ThetaParams, chained_upper_bound, require_valid

__all__ = ["FitResult", "log_likelihood", "fit", "select_order"]

_BOUNDARY_SNAP = 1e-8
_CHI2_1_05 = 3.84  # chi-squared(1 df) critical value at .05
_NO_CHANGE = 1e-4


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    ``boundary_flags[i]`` marks coefficient i+1 as sitting on an active
    constraint (its standard error is then unreliable).  ``std_errs``
    are the square roots of the diagonal of the inverse observed
    information, None when that matrix is not positive definite.
    ``iterations`` counts SLSQP iterations.  ``trace`` carries the
    per-order fits when produced by select_order.
    """

    theta_hat: ThetaParams
    std_errs: tuple | None
    loglik: float
    n_obs: int
    pi0_hat: float
    converged: bool
    iterations: int
    boundary_flags: tuple = ()
    trace: tuple = ()

    @property
    def order(self) -> int:
        return self.theta_hat.order


def _checked_pvalues(pvalues) -> np.ndarray:
    arr = np.asarray(pvalues, dtype=float).ravel()
    if arr.size == 0:
        raise InputError("no p-values supplied")
    if not np.all(np.isfinite(arr)):
        i = int(np.argmin(np.isfinite(arr)))
        raise InputError(f"p-value at index {i} is not finite: {arr[i]!r}")
    if np.any(arr == 0.0):
        i = int(np.argmax(arr == 0.0))
        raise InputError(
            f"p-value at index {i} is exactly 0, outside the family's "
            "domain (0, 1]; apply an explicit floor before fitting if "
            "underflow is expected"
        )
    if np.any((arr < 0.0) | (arr > 1.0)):
        bad = (arr < 0.0) | (arr > 1.0)
        i = int(np.argmax(bad))
        raise InputError(f"p-value at index {i} is outside [0, 1]: {arr[i]!r}")
    return np.sort(arr)


def _design(x: np.ndarray, order: int) -> np.ndarray:
    """Rows v with v_j = x^j - j!, so the density is 1 + v . theta."""
    return np.stack(
        [x ** j - math.factorial(j) for j in range(1, order + 1)], axis=1
    )


def _loglik(v: np.ndarray, theta: ThetaParams) -> float:
    f = 1.0 + v @ np.array(theta.coeffs)
    return float(np.log(f).sum()) if np.all(f > 0.0) else -math.inf


def log_likelihood(pvalues, theta: ThetaParams) -> float:
    """Sum of log densities; -inf when the density is nonpositive at any
    observation (possible only for parameters outside the valid region)."""
    arr = _checked_pvalues(pvalues)
    if theta.order == 0:
        return 0.0
    return _loglik(_design(-np.log(arr), theta.order), theta)


def _snap_boundaries(coeffs: tuple, order: int) -> tuple:
    """Coefficients within the snap tolerance of a box edge are set
    exactly on it; returns (snapped coefficients, active-constraint
    flags)."""
    snapped = list(coeffs)
    flags = [False] * order
    for i in range(order, 0, -1):
        upper = chained_upper_bound(i, snapped)
        if upper - snapped[i - 1] <= _BOUNDARY_SNAP:
            snapped[i - 1] = upper
            flags[i - 1] = True
        elif snapped[i - 1] <= _BOUNDARY_SNAP:
            # the top coefficient of a higher-order fit is strictly
            # positive by definition of the order, so it is flagged as
            # boundary-pinned but never moved onto the excluded edge
            if i < order or order == 1:
                snapped[i - 1] = 0.0
            flags[i - 1] = True
    return tuple(snapped), tuple(flags)


def _std_errs(v: np.ndarray, theta: ThetaParams):
    """Square roots of the diagonal of the inverse observed information
    sum v v^T / f^2; None when it is not positive definite."""
    f = 1.0 + v @ np.array(theta.coeffs)
    if np.any(f <= 0.0):
        return None
    w = v / f[:, None]
    try:
        chol = np.linalg.cholesky(w.T @ w)
    except np.linalg.LinAlgError:
        return None
    # diag(H^-1) = column sums of squares of L^-1 when H = L L^T
    linv = np.linalg.inv(chol)
    return tuple(float(s) for s in np.sqrt((linv ** 2).sum(axis=0)))


def fit(pvalues, order: int) -> FitResult:
    """Maximum-likelihood estimate of a fixed-order model.

    Solves the concave problem once with SLSQP, snaps coefficients onto
    the constraints they reach, and attaches observed-information
    standard errors.  Raises NumericError if the solve fails.
    """
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}")
    arr = _checked_pvalues(pvalues)
    if arr.size < order + 5:
        raise InputError(
            f"need at least order + 5 = {order + 5} observations to fit "
            f"order {order}, got {arr.size}"
        )
    v = _design(-np.log(arr), order)
    fact = np.array([math.factorial(j) for j in range(1, order + 1)], dtype=float)
    # solving for u_j = j! theta_j rather than theta: the simplex needs
    # one constraint, not I, and only with the columns of v divided by
    # j! does SLSQP converge reliably at orders 5 and 6
    m = v / fact

    def objective(u):
        # the mean, not the sum, keeps SLSQP's ftol on a per-point scale
        f = 1.0 + m @ u
        if np.any(f <= 0.0):
            return math.inf, np.zeros(order)
        return -float(np.log(f).mean()), -(m / f[:, None]).mean(axis=0)

    bounds = [(0.0, None)] * order
    if order > 1:
        bounds[-1] = (fact[-1] * np.finfo(float).tiny, None)
    res = optimize.minimize(
        objective,
        np.full(order, 0.1 / order),
        jac=True,
        method="SLSQP",
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": lambda u: 1.0 - u.sum(),
                      "jac": lambda u: -np.ones(order)}],
        options=dict(ftol=1e-12, maxiter=500),
    )
    if not res.success:
        raise NumericError(f"SLSQP fit of order {order} failed: {res.message}")
    coeffs, flags = _snap_boundaries(tuple(float(c) for c in res.x / fact), order)
    theta_hat = ThetaParams(order, coeffs)
    require_valid(theta_hat, "fitted parameters")
    return FitResult(
        theta_hat=theta_hat,
        std_errs=_std_errs(v, theta_hat),
        loglik=_loglik(v, theta_hat),
        n_obs=int(arr.size),
        pi0_hat=theta_hat.theta0,
        converged=True,
        iterations=int(res.nit),
        boundary_flags=flags,
    )


def select_order(pvalues, max_order: int = 6) -> FitResult:
    """Fit increasing orders until the likelihood stops improving.

    Stops at order I when twice the log-likelihood gain over I-1 falls
    below the chi-squared(1) critical value 3.84, or when the gain is
    numerically nil (below 1e-4); returns the last accepted fit with
    every attempted fit attached as the trace.
    """
    if max_order < 1:
        raise InputError(f"max_order must be >= 1, got {max_order}")
    fits = [fit(pvalues, 1)]
    selected = fits[0]
    for order in range(2, max_order + 1):
        candidate = fit(pvalues, order)
        fits.append(candidate)
        gain = candidate.loglik - selected.loglik
        if 2.0 * gain < _CHI2_1_05 or gain < _NO_CHANGE:
            break
        selected = candidate
    return replace(selected, trace=tuple(fits))
