"""Maximum-likelihood fitting of the log-polynomial p-value family.

With x = -log p, an order-I density is 1 + sum_j theta_j (x^j - j!),
linear in the coefficients, so the log-likelihood is concave.  The valid
region, the one :func:`~fdrdist.psi_dist.validate_theta` checks at every
order, is the simplex u >= 0, sum(u) <= 1 in the mixture weights
u_j = j! theta_j.  One active-set Newton solve over that simplex, with
the analytic gradient and Hessian and from a single interior start,
reaches the global maximum, since a concave function has no other local
maxima.
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

from .errors import InputError, NumericError
from .psi_dist import _MAX_ORDER, ThetaParams, _whole, checked_pvalues, require_valid

__all__ = ["FitResult", "log_likelihood", "fit", "select_order"]

_BOUNDARY_SNAP = 1e-8
_NEWTON_DECREMENT = 1e-13
_NEWTON_MAX_ITER = 100
_CHI2_1_05 = 3.84  # chi-squared(1 df) critical value at .05
_NO_CHANGE = 1e-4


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    ``boundary_flags[i]`` marks coefficient i+1 as sitting on an active
    constraint (its standard error is then unreliable).  ``std_errs``
    are the square roots of the diagonal of the inverse observed
    information, None when that matrix is not positive definite.
    ``iterations`` counts the Newton steps of the active-set solve.
    ``trace`` carries the per-order fits when produced by select_order.
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
    arr = np.sort(checked_pvalues(pvalues, positive=True))
    if theta.order == 0:
        return 0.0
    return _loglik(_design(-np.log(arr), theta.order), theta)


def _snap_boundaries(u, order: int) -> tuple:
    """(coefficients, active-constraint flags) from the weights
    u_i = i! theta_i, each within i! * 1e-8 of a simplex face set on it.

    Such a weight u_i is set to 0, except the top weight of an order >= 2
    (flagged only: theta_I > 0 defines the order).  Then, if theta_0 is at
    most i! * 1e-8, i the lowest positive index, u_i takes up the rest.
    """
    fact = [math.factorial(i) for i in range(1, order + 1)]
    flags = [bool(w <= f * _BOUNDARY_SNAP) for w, f in zip(u, fact)]
    closed = order - (order > 1)  # weights that may be set to 0
    theta = [0.0 if flag and i < closed else float(w) / f
             for i, (w, f, flag) in enumerate(zip(u, fact, flags))]
    low = next((i for i, c in enumerate(theta) if c > 0.0), None)
    if low is not None and ThetaParams(order, theta).theta0 <= fact[low] * _BOUNDARY_SNAP:
        # theta_0 adds the weights from the top down, u_low last, so with
        # rest the sum of the others it is 1 - fl(rest + u_low); the
        # target u_low = fl(1 - rest) gives fl(rest + target) <= 1 for
        # every float rest in [0, 1]
        theta[low] = 0.0
        target = ThetaParams(order, theta).theta0
        theta[low] = target / fact[low]
        if fact[low] * theta[low] > target:
            # fact[low] * (target / fact[low]) can round one ulp above
            # target; one ulp down puts the exact product below it
            theta[low] = math.nextafter(theta[low], 0.0)
        flags[low] = True
    return tuple(theta), tuple(flags)


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


def _mean_loglik(m: np.ndarray, u: np.ndarray) -> float:
    f = 1.0 + m @ u
    return float(np.log(f).mean()) if np.all(f > 0.0) else -math.inf


def _newton_step(g, h, free, sum_active):
    """Newton step d on the free coordinates, maximizing the quadratic
    model g.d - d.h.d / 2 (with 1.d = 0 when sum(u) <= 1 is active), and
    the multiplier lam of that constraint (0 when it is inactive)."""
    d = np.zeros_like(g)
    idx = np.flatnonzero(free)
    k = idx.size
    if k == 0:
        return d, 0.0
    kkt = h[np.ix_(idx, idx)]
    rhs = g[idx]
    if sum_active:
        kkt = np.block([[kkt, np.ones((k, 1))], [np.ones((1, k)), np.zeros((1, 1))]])
        rhs = np.append(rhs, 0.0)
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular Newton system: {exc}") from None
    d[idx] = sol[:k]
    return d, float(sol[k]) if sum_active else 0.0


def _active_set_newton(m: np.ndarray, lb: np.ndarray):
    """Maximize mean(log(1 + m u)) over u >= lb, sum(u) <= 1.

    A primal active-set method: Newton steps on the free coordinates
    (through the KKT system when sum(u) = 1 is held), capped by a ratio
    test at the nearest bound, which then joins the working set, and
    shortened by Armijo backtracking.  Once the Newton decrement g.d is
    at most 1e-13, the constraint with the most negative multiplier is
    released; with none left the point is optimal.  Returns (u, number
    of Newton steps); a stalled line search or more than 100 steps
    raises NumericError.
    """
    order = m.shape[1]
    u = np.full(order, 0.1 / order)
    at_bound = np.zeros(order, dtype=bool)
    sum_active = False
    value = _mean_loglik(m, u)
    for step_no in range(_NEWTON_MAX_ITER + 1):
        w = m / (1.0 + m @ u)[:, None]
        g = w.mean(axis=0)
        h = w.T @ w / len(w)  # minus the Hessian
        d, lam = _newton_step(g, h, ~at_bound, sum_active)
        if g @ d <= _NEWTON_DECREMENT:
            mult = np.where(at_bound, lam - g, np.inf)  # of the bounds
            worst = int(np.argmin(mult))
            if sum_active and lam < min(mult[worst], 0.0):
                sum_active = False
            elif mult[worst] < 0.0:
                at_bound[worst] = False
            else:
                return u, step_no
            d, lam = _newton_step(g, h, ~at_bound, sum_active)
            if g @ d <= _NEWTON_DECREMENT:
                return u, step_no  # the release gains nothing measurable
        if step_no == _NEWTON_MAX_ITER:
            break
        # ratio test: the longest step (at most 1) that stays feasible
        t_max, blocking = 1.0, None
        for i in np.flatnonzero(~at_bound & (d < 0.0)):
            t = max((u[i] - lb[i]) / -d[i], 0.0)
            if t < t_max:
                t_max, blocking = t, i
        rise = d.sum()
        if not sum_active and rise > 0.0:
            t = max((1.0 - u.sum()) / rise, 0.0)
            if t < t_max:
                t_max, blocking = t, "sum"
        t = t_max
        slope = g @ d
        for _ in range(60):
            cand = u + t * d
            if t == t_max and blocking not in (None, "sum"):
                cand[blocking] = lb[blocking]
            new = _mean_loglik(m, cand)
            if new >= value + 1e-4 * t * slope or t == 0.0:
                break
            t *= 0.5
        else:
            raise NumericError(
                f"Newton fit of order {order} stalled: no ascent along the step"
            )
        u, value = cand, new
        if t == t_max and blocking == "sum":
            sum_active = True
        elif t == t_max and blocking is not None:
            at_bound[blocking] = True
    raise NumericError(
        f"Newton fit of order {order} did not converge in "
        f"{_NEWTON_MAX_ITER} iterations"
    )


def fit(pvalues, order: int) -> FitResult:
    """Maximum-likelihood estimate of a fixed-order model.

    Solves the concave problem once by active-set Newton, snaps
    coefficients onto the constraints they reach, and attaches
    observed-information standard errors.  Raises NumericError if the
    solve fails.
    """
    order = _whole(order, "order must be an integer in [1, 170]", 1, _MAX_ORDER)
    arr = np.sort(checked_pvalues(pvalues, positive=True))
    if arr.size < order + 5:
        raise InputError(
            f"need at least order + 5 = {order + 5} observations to fit "
            f"order {order}, got {arr.size}"
        )
    v = _design(-np.log(arr), order)
    fact = np.array([math.factorial(j) for j in range(1, order + 1)], dtype=float)
    # solving for u_j = j! theta_j rather than theta: the region is the
    # simplex u >= 0, sum(u) <= 1, and the columns of v divided by j!
    # keep the Newton system well scaled at orders 5 and 6
    lb = np.zeros(order)
    if order > 1:
        lb[-1] = fact[-1] * np.finfo(float).tiny
    u, iterations = _active_set_newton(v / fact, lb)
    coeffs, flags = _snap_boundaries(u, order)
    theta_hat = ThetaParams(order, coeffs)
    require_valid(theta_hat, "fitted parameters")
    return FitResult(
        theta_hat=theta_hat,
        std_errs=_std_errs(v, theta_hat),
        loglik=_loglik(v, theta_hat),
        n_obs=int(arr.size),
        pi0_hat=theta_hat.theta0,
        converged=True,
        iterations=iterations,
        boundary_flags=flags,
    )


def select_order(pvalues, max_order: int = 6) -> FitResult:
    """Fit increasing orders until the likelihood stops improving.

    Stops at order I when twice the log-likelihood gain over I-1 falls
    below the chi-squared(1) critical value 3.84, or when the gain is
    numerically nil (below 1e-4); returns the last accepted fit with
    every attempted fit attached as the trace.

    The rule is not a test at level .05.  The top coefficient of the
    larger model sits on its boundary whenever the data do not call for
    it, so 2 Delta is often exactly 0 and the chi-squared(1) reference
    overstates the size: on 400 samples of n = 3226 from the order-3
    breast-cancer law, the 3 -> 4 step gave 2 Delta = 0 in 48 % of them
    and 2 Delta > 3.84 in 0.5 %.
    """
    max_order = _whole(max_order, "max_order must be an integer in [1, 170]", 1,
                       _MAX_ORDER)
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
