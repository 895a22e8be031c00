"""Discovery-count distributions under dependent p-values.

Two exchangeable dependence models are supported.

* A Gumbel copula with parameter gamma >= 1 (gamma = 1 is independence).
  By the Marshall-Olkin frailty construction the p-values are
  independent given a positive-stable frailty S, each at or below
  p* = Psi(alpha/n) with probability q(S) = exp(-S (-log p*)^gamma), so
  the Bonferroni count B is a mixture of binomials:

      Pr[B = k] = E[Binom(k; n, q(S))].

  Every term is nonnegative, so the average runs in double precision,
  as a product quadrature rule over the two variates of Kanter's
  construction of S, refined until two successive grids agree.  The
  counts run to a cap that Markov's inequality on the factorial moments
  of B fixes before any grid.

* A latent fair coin selecting between parameter vectors theta+eps and
  theta-eps for all p-values at once.  The marginal law stays in the
  family (coefficient averaging); the count pmf is the equal-weight
  mixture of the two independent-case pmfs, and the induced pairwise
  p-value correlation has a closed form from the first two moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, InputError, NumericError
from .count_dist import (
    CountDistribution,
    TestingSetup,
    _binomial_pmf,
    _check_tail_tol,
    _stirlerr,
    _truncated,
    bh_pmf,
)
from .psi_dist import (_BLOCK, ThetaParams, _instance, _real, _reals, _whole, cdf,
                       moment, require_valid)

__all__ = [
    "Independent",
    "GumbelCopula",
    "Latent",
    "DependenceSpec",
    "gumbel_diagonal",
    "bonferroni_pmf_copula",
    "latent_bh_pmf",
    "latent_pvalue_correlation",
    "perturbed_pair",
]


def _check_gamma(gamma: float) -> float:
    """The Gumbel parameter as a float, checked to be finite and >= 1."""
    gamma = _real(gamma, "gamma must be a real number >= 1")
    if not (math.isfinite(gamma) and gamma >= 1.0):
        raise ConstraintError(f"gamma must be finite and >= 1, got {gamma}")
    return gamma


@dataclass(frozen=True)
class Independent:
    """No dependence; the joint law is the product of the marginals."""


@dataclass(frozen=True)
class GumbelCopula:
    """Exchangeable Gumbel copula; gamma = 1 is independence and larger
    gamma means stronger positive dependence."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))


@dataclass(frozen=True)
class Latent:
    """Shared fair-coin mixture between theta+eps and theta-eps."""

    eps: tuple

    def __post_init__(self):
        object.__setattr__(self, "eps", _reals(self.eps, "eps entries must be finite"))


DependenceSpec = Independent | GumbelCopula | Latent


def perturbed_pair(theta: ThetaParams, eps) -> tuple[ThetaParams, ThetaParams]:
    """(theta - eps, theta + eps), both validated.

    The derived theta_0 changes with the perturbation; constructing fresh
    parameter objects keeps it consistent automatically.
    """
    eps = _reals(eps, "eps entries must be finite")
    if len(eps) != theta.order:
        raise InputError(f"eps has length {len(eps)}, expected {theta.order}")
    minus = ThetaParams(theta.order, tuple(t - e for t, e in zip(theta.coeffs, eps)))
    plus = ThetaParams(theta.order, tuple(t + e for t, e in zip(theta.coeffs, eps)))
    require_valid(minus, "theta - eps")
    require_valid(plus, "theta + eps")
    return minus, plus


def gumbel_diagonal(p_star: float, m: int, gamma: float) -> float:
    """Copula diagonal C(p*, ..., p*) with m arguments: (p*)^(m^(1/gamma)),
    evaluated in log space."""
    p_star = _real(p_star, "p_star must be a real number in (0, 1)")
    if not 0.0 < p_star < 1.0:
        raise InputError(f"p_star must lie in (0, 1), got {p_star}")
    m = _whole(m, "m must be a positive integer up to 2^53")
    gamma = _check_gamma(gamma)
    return math.exp(m ** (1.0 / gamma) * math.log(p_star))


# Frailty quadrature for the copula law.  The first grid has 32 W nodes
# and 128 E nodes per unit of gamma - 1 (at least one unit, since the
# integrand's width in log E shrinks as 1/(gamma - 1)); both axes double
# until two successive grids agree entrywise.
_GRID0 = (32, 128)
_AGREE_RTOL = 1e-10       # relative agreement of two grids, per entry
_AGREE_FLOOR = 1e-280     # entries below this are not compared
_MAX_WORK = 1 << 30       # nodes times counts of the largest grid allowed
# v range of the E axis, sqrt(E) = log(1 + e^v): E from 1e-18 to 745
_V_RANGE = (-20.7, 27.3)
# e^-800 underflows to zero in double precision, even times n
_LOG_TINY = -800.0
# below this e^x is subnormal and slow to form and to sum; such terms are
# dropped, each moving an entry by less than 2^-1022, far below _AGREE_FLOOR
_LOG_SUBNORMAL = math.log(2.0**-1022)


def _log_kanter_a(gamma: float, w: np.ndarray) -> np.ndarray:
    """log A(W) for Kanter's construction of the positive-stable frailty,
    S = A(W) E^-r with a = 1/gamma, r = (1-a)/a, W uniform on (0, pi) and
    E standard exponential:

        A(W) = sin(a W) sin((1-a) W)^r / sin(W)^(1/a).
    """
    a = 1.0 / gamma
    r = (1.0 - a) / a
    return (np.log(np.sin(a * w))
            + r * np.log(np.sin((1.0 - a) * w))
            - np.log(np.sin(w)) / a)


def _legendre(x: np.ndarray, n: int):
    """(P_n(x), P_n'(x)) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones(x.shape), x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (0, 1), by Newton's method on
    the recurrence from the asymptotic nodes cos(pi (i - 1/4) / (n + 1/2)).
    Cached, read-only arrays.  numpy's leggauss solves an eigenproblem
    instead: its end weights are 6e-8 off at n = 2048 (these are within
    1e-10), and its first LAPACK call starts a thread pool."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(x, n)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    dp = _legendre(x, n)[1]
    t, w = 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * dp * dp)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _frailty_rule(gamma: float, n_w: int, n_e: int):
    """Both axes of the product rule for E[f(S)], normalized to weight 1.

    W axis: Gauss-Legendre in t with W = pi (1 - t^6), t with density
    6 t^5 on (0, 1).  This clusters nodes at W = pi, where A(W) blows up;
    for gamma near 1, S leaves 1 only where pi - W is of order
    gamma - 1, and the sixth power puts nodes there down to
    gamma - 1 = 1e-12 (the square reaches only to about 1e-6).
    E axis: trapezoid rule in v with sqrt(E) = log(1 + e^v), log-spaced
    for small E and spaced in sqrt(E) for large E, where the e^-E factor
    makes the integrand's peaks narrow as 1/sqrt(E).  Returns
    (log A, W weights, log E, E weights).
    """
    t, w_t = _gauss_legendre(n_w)
    w_w = w_t * t ** 5
    log_a = _log_kanter_a(gamma, np.pi * (1.0 - t ** 6))
    v = np.linspace(*_V_RANGE, n_e)
    root = np.logaddexp(0.0, v)
    w_e = np.exp(-root * root) * root / (1.0 + np.exp(-v))  # e^-E dE/dv / 2
    w_e[[0, -1]] *= 0.5
    return log_a, w_w / w_w.sum(), 2.0 * np.log(root), w_e / w_e.sum()


def _log_comb(n: int, hi: int) -> np.ndarray:
    """log C(n, k) for k = 0..hi (hi <= n): Stirling remainders plus
    k log(n/k) + (n-k) log(n/(n-k)), whose terms are all nonnegative."""
    out = np.zeros(hi + 1)
    k = np.arange(1, min(hi, n - 1) + 1)
    if k.size:
        kf = k.astype(float)
        out[k] = (_stirlerr(np.array([n]))[0] - _stirlerr(k) - _stirlerr(n - k)
                  + kf * np.log(n / kf) - (n - kf) * np.log1p(-kf / n)
                  - 0.5 * (math.log(2 * math.pi) + np.log(kf) + np.log1p(-kf / n)))
    return out


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) for x <= 0, without cancellation at either end."""
    with np.errstate(divide="ignore"):
        return np.where(x > -math.log(2.0), np.log(-np.expm1(x)),
                        np.log1p(-np.exp(x)))


def _frailty_pmf(n: int, log_l: float, gamma: float, cap: int,
                 n_w: int, n_e: int) -> np.ndarray:
    """E[Binom(k; n, q(S))] for k = 0..cap on one product grid, with
    q = exp(-S L) and log L = ``log_l``.

    Nodes are taken a block at a time.  A node whose q is below e^-800
    has all its mass at k = 0 and adds its weight there; a node whose
    binomial is below e^-800 on all of 0..cap adds nothing, and a term
    that would be subnormal adds nothing either.
    """
    log_a, w_w, log_e, w_e = _frailty_rule(gamma, n_w, n_e)
    a = 1.0 / gamma
    r = (1.0 - a) / a
    k = np.arange(cap + 1.0)
    log_c = _log_comb(n, cap)
    out = np.zeros(cap + 1)
    rows = max(1, _BLOCK // (cap + 1))
    blk, tmp = np.empty((rows, cap + 1)), np.empty((rows, cap + 1))
    for lo in range(0, n_w * n_e, rows):
        i, j = np.divmod(np.arange(lo, min(lo + rows, n_w * n_e)), n_e)
        w = w_w[i] * w_e[j]
        with np.errstate(over="ignore"):
            log_q = np.maximum(-np.exp(log_a[i] - r * log_e[j] + log_l), -1e300)
        dead = log_q < _LOG_TINY
        out[0] += w[dead].sum()
        log_p = _log1mexp(np.minimum(log_q, -1e-300))  # log(1 - q)
        top = log_c[cap] + cap * log_q + (n - cap) * log_p
        live = (~dead & (w > 0.0)
                & ~((np.exp(log_q) * (n + 1) > cap + 1) & (top < _LOG_TINY)))
        m = int(np.count_nonzero(live))
        if not m:
            continue
        # weights enter the exponent, so the block reduces by a plain sum
        b, t = blk[:m], tmp[:m]
        np.multiply.outer(log_q[live], k, out=b)
        np.multiply.outer(log_p[live], n - k, out=t)
        b += t
        b += log_c
        b += np.log(w[live])[:, None]
        b[b < _LOG_SUBNORMAL] = -np.inf
        out += np.exp(b, out=b).sum(axis=0)
    return out


def _grid(gamma: float, level: int) -> tuple[int, int]:
    scale = 1 << level
    return (_GRID0[0] * scale,
            _GRID0[1] * math.ceil(max(gamma - 1.0, 1.0)) * scale)


def _disagreement(a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative difference over entries where either pmf is at
    least _AGREE_FLOOR."""
    big = np.maximum(a, b)
    keep = big >= _AGREE_FLOOR
    if not keep.any():
        return 0.0
    return float(np.max(np.abs(a - b)[keep] / big[keep]))


def _copula_cap(n: int, ell: float, gamma: float, tail_tol: float,
                top: int) -> int:
    """One below the smallest count k <= top whose bound on Pr[B >= k] is
    at most tail_tol, else top; ell = -log p*.

    Given S, B is Binomial(n, q(S)), so E[C(B, j)] = C(n, j) (p*)^(j^(1/gamma)),
    the Laplace transform of S at jL; as C(B, j) >= C(k, j) on B >= k,
    Markov's inequality gives for every j <= k (falling factorials)

        Pr[B >= k] <= (n)_j (p*)^(j^(1/gamma)) / (k)_j.

    Its log is convex in j, so the best j is the first with k <= kappa_j
    = j + (n - j) exp(-ell ((j + 1)^(1/gamma) - j^(1/gamma))), where the
    step to j + 1 turns upward; kappa increases with j.  Any j gives a
    bound, so rounding only loosens the cap.  Counts are checked in
    blocks that double from 64, so memory is O(cap).
    """
    a = 1.0 / gamma
    hi = 0
    while hi < top:
        hi = min(max(2 * hi, 64), top)
        j = np.arange(hi + 1.0)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(j[1:]))))
        log_fall = j * math.log(n) + np.concatenate(
            ([0.0], np.cumsum(np.log1p(-j[:-1] / n))))  # log (n)_j
        kappa = j[:-1] + (n - j[:-1]) * np.exp(-ell * np.diff(j ** a))
        k = np.arange(1, hi + 1)
        best = np.minimum(np.searchsorted(kappa, k), k)
        log_bound = (log_fall[best] - log_fact[k] + log_fact[k - best]
                     - ell * best ** a)
        hit = np.flatnonzero(log_bound <= math.log(tail_tol))
        if hit.size:
            return int(hit[0])  # k = hit + 1
    return top


def bonferroni_pmf_copula(setup: TestingSetup, gamma: float,
                          tail_tol: float = 1e-9,
                          k_max: int | None = None) -> CountDistribution:
    """Pmf of the Bonferroni count when the p-values share a Gumbel
    copula with the setup's marginal law, in double precision.

    Marshall-Olkin frailty form: given the positive-stable frailty S
    (Laplace transform e^-t^(1/gamma)), the p-values are independent
    and each falls at or below p* = Psi(alpha/n) with probability
    q = exp(-S L), L = (-log p*)^gamma, so

        Pr[B = k] = E[Binom(k; n, q(S))],

    an average of nonnegative terms.  S is written through Kanter's
    construction and the average is a product rule over its two driving
    variates (see :func:`_frailty_rule`).  At gamma = 1, S = 1 and the
    pmf is the binomial itself.

    The counts run to an explicit ``k_max`` (clamped to n), or else to
    the cap of :func:`_copula_cap`, fixed before any grid, and then
    :func:`_truncated` cuts the pmf (tail_tol >= 1e-12).  A grid costs
    n_w n_e (cap + 1) node-count entries; one past 2^30 raises
    NumericError, the first grid included.  Both axes double from the
    first grid until two successive grids agree entrywise to 1e-10
    relative; ``quadrature_disagreement`` records that difference, an
    estimate and not a bound.
    """
    _instance(setup, TestingSetup, "expected TestingSetup")
    gamma = _check_gamma(gamma)
    _check_tail_tol(tail_tol, "the copula pmf")
    n = setup.n
    p_star = cdf(setup.alpha / n, setup.marginal)
    if not 0.0 < p_star < 1.0:
        raise NumericError(
            f"p* = Psi(alpha/n) = {p_star} leaves (0, 1); the copula law "
            "is undefined"
        )
    ell = -math.log(p_star)
    nodes = 1 if gamma == 1.0 else math.prod(_grid(gamma, 0))
    cap = (_copula_cap(n, ell, gamma, tail_tol, min(n, _MAX_WORK // nodes))
           if k_max is None else
           min(_whole(k_max, "k_max must be a whole number >= 0", 0, math.inf), n))
    pmf, disagreement, level = None, math.inf, 0
    if gamma == 1.0:
        pmf, disagreement = _binomial_pmf(n, p_star, cap), 0.0  # one node
    while disagreement > _AGREE_RTOL:
        n_w, n_e = _grid(gamma, level)
        if n_w * n_e * (cap + 1) > _MAX_WORK:
            from decimal import Decimal  # n_e grows with gamma past float range
            raise NumericError(
                f"bonferroni_pmf_copula(n={n}, gamma={gamma}) did not "
                f"converge: grid {level + 1}, {n_w}x{Decimal(n_e):.3g} nodes for "
                f"{cap + 1} counts, exceeds the cap of {_MAX_WORK} entries (last "
                f"disagreement between two grids: {disagreement:.1e})"
            )
        prev, pmf = pmf, _frailty_pmf(n, gamma * math.log(ell), gamma, cap,
                                      n_w, n_e)
        if prev is not None:
            disagreement = _disagreement(prev, pmf)
        level += 1
    return _truncated(setup, pmf, tail_tol if k_max is None else None,
                      quadrature_disagreement=disagreement)


def latent_bh_pmf(setup: TestingSetup, eps,
                  tail_tol: float = 1e-9) -> CountDistribution:
    """Step-down count pmf under the latent fair-coin model: the
    equal-weight mixture of the two conditional (independent) pmfs, each
    cut at tail_tol, kept whole with half of each one's tail mass beyond
    it.  With eps all zero both are the same pmf, computed once."""
    _instance(setup, TestingSetup, "expected TestingSetup")
    minus, plus = perturbed_pair(setup.marginal, eps)
    dist_m = bh_pmf(TestingSetup(setup.n, setup.alpha, minus), tail_tol)
    dist_p = dist_m if plus == minus else bh_pmf(
        TestingSetup(setup.n, setup.alpha, plus), tail_tol)
    pmf = np.zeros(max(dist_m.k_max, dist_p.k_max) + 1)
    pmf[: dist_m.k_max + 1] += 0.5 * dist_m.pmf
    pmf[: dist_p.k_max + 1] += 0.5 * dist_p.pmf
    return _truncated(setup, pmf, None,
                      0.5 * (dist_m.tail_mass + dist_p.tail_mass))


def latent_pvalue_correlation(theta: ThetaParams, eps) -> float:
    """Pairwise correlation of p-values induced by the latent model.

    Cov(Q1, Q2) = mu(theta+eps)^2/2 + mu(theta-eps)^2/2 - mu(theta)^2
    with mu the first moment; dividing by Var(p | theta) gives the
    correlation.  Always nonnegative.
    """
    minus, plus = perturbed_pair(theta, eps)
    mu = moment(1, theta)
    cov = 0.5 * moment(1, plus) ** 2 + 0.5 * moment(1, minus) ** 2 - mu * mu
    var = moment(2, theta) - mu * mu
    return max(cov / var, 0.0)
