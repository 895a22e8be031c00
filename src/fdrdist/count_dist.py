"""Distributions of discovery counts under the step-down and Bonferroni
multiple-testing rules.

The step-down count is the smallest k >= 0 such that the k smallest
ordered p-values sit below their staircase thresholds i*alpha/n and the
next one exceeds (k+1)*alpha/n.  Its exact pmf is

    Pr[K = k] = n!/(n-k)! * U_k * (1 - Psi((k+1) alpha / n))^(n-k)

where U_k is a k-fold nested integral of the marginal density over the
staircase region, evaluated here through an alternating recursion.  That
recursion adds and subtracts nearly equal quantities, so all of it runs
in extended precision with an adaptive bit-doubling schedule.

Large-n limits (a Borel-Tanner law near zero and a normal component away
from it) and the uniform-null closed form live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mpf, workprec
from scipy import optimize, stats

from .errors import InputError, NumericError
from .psi_dist import (
    PrecisionContext,
    ThetaParams,
    _beta_mp,
    _cdf_mp,
    cdf,
    density,
    require_valid,
    theta_to_beta,
)

__all__ = [
    "TestingSetup",
    "CountDistribution",
    "NormalApprox",
    "bh_count",
    "bh_count_step_up",
    "bonferroni_count",
    "u_k",
    "bh_pmf",
    "bh_pmf_uniform_exact",
    "borel_tanner_pmf",
    "borel_tanner_mean",
    "borel_tanner_var",
    "bonferroni_pmf",
    "bonferroni_poisson",
    "normal_approx",
    "borel_limit_param",
]


@dataclass(frozen=True)
class TestingSetup:
    """A simultaneous-testing configuration: n hypotheses, FDR level
    alpha, and the marginal p-value law (uniform = all-zero coefficients)."""

    n: int
    alpha: float
    marginal: ThetaParams = field(default_factory=ThetaParams.uniform)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise InputError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        require_valid(self.marginal, "marginal")


@dataclass(frozen=True)
class CountDistribution:
    """A truncated pmf over counts k = 0..k_max with an explicit bound on
    the mass beyond the truncation point.

    The invariant sum(pmf) + tail_mass = 1 holds to 1e-9 by construction;
    a violation signals a numerics bug upstream and raises.
    """

    setup: TestingSetup
    pmf: np.ndarray
    k_max: int
    tail_mass: float
    precision_bits: int = 0

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.shape != (self.k_max + 1,):
            raise InputError(
                f"pmf length {pmf.shape} does not match k_max {self.k_max}"
            )
        if np.any(pmf < -1e-9) or np.any(pmf > 1 + 1e-9):
            raise NumericError(
                f"pmf entries outside [0, 1] beyond tolerance: "
                f"min {pmf.min():.3e}, max {pmf.max():.3e}"
            )
        pmf = np.clip(pmf, 0.0, 1.0)
        pmf.flags.writeable = False
        object.__setattr__(self, "pmf", pmf)
        total = float(pmf.sum()) + self.tail_mass
        if abs(total - 1.0) > 1e-9:
            raise NumericError(
                f"pmf plus tail mass is {total!r}, off unity by {total - 1.0:.3e}"
            )

    def mean(self) -> float:
        return float(np.arange(self.k_max + 1) @ self.pmf)

    def var(self) -> float:
        k = np.arange(self.k_max + 1)
        m = self.mean()
        return float((k * k) @ self.pmf - m * m)

    def sd(self) -> float:
        return math.sqrt(max(self.var(), 0.0))

    def mean_error_bound(self) -> float:
        """Upper bound on the mean lost to truncation: the unseen tail
        sits at counts k_max+1..n, so it adds at most tail_mass * n."""
        return self.tail_mass * self.setup.n

    def prob(self, k: int) -> float:
        return float(self.pmf[k]) if 0 <= k <= self.k_max else 0.0

    def prob_at_most(self, k: int) -> float:
        return float(self.pmf[: min(k, self.k_max) + 1].sum())


def _check_tail_tol(tail_tol: float) -> None:
    """Reject truncation tolerances outside (0, 1), NaN included: 0 runs
    the pmf out to k = n, and 1 or more truncates it to nothing."""
    if not 0.0 < tail_tol < 1.0:
        raise InputError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")


def _checked_pvalues(pvalues) -> np.ndarray:
    arr = np.asarray(pvalues, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"expected a flat vector of p-values, got shape {arr.shape}")
    bad = ~np.isfinite(arr) | (arr < 0.0) | (arr > 1.0)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InputError(
            f"p-value at index {idx} is {arr[idx]!r}, outside [0, 1]"
        )
    return arr


def bh_count(pvalues, alpha: float) -> int:
    """Step-down discovery count.

    Sorts ascending and returns the length of the initial run of order
    statistics satisfying p_(i) <= i*alpha/n; the (k+1)-th then exceeds
    its threshold (with p_(n+1) treated as infinite, so k = n occurs).
    Threshold comparisons are non-strict.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    arr = np.sort(_checked_pvalues(pvalues))
    n = arr.size
    if n == 0:
        return 0
    ok = arr <= np.arange(1, n + 1) * alpha / n
    return int(np.argmax(~ok)) if not ok.all() else n


def bh_count_step_up(pvalues, alpha: float) -> int:
    """Conventional step-up count: the largest k with p_(k) <= k*alpha/n.

    Provided as a convenience only; every distribution computation in this
    package targets the step-down rule of :func:`bh_count`.
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    arr = np.sort(_checked_pvalues(pvalues))
    n = arr.size
    if n == 0:
        return 0
    ok = np.flatnonzero(arr <= np.arange(1, n + 1) * alpha / n)
    return int(ok[-1]) + 1 if ok.size else 0


def bonferroni_count(pvalues, alpha: float) -> int:
    """Number of p-values at or below alpha/n (ties count as significant)."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    arr = _checked_pvalues(pvalues)
    if arr.size == 0:
        return 0
    return int(np.count_nonzero(arr <= alpha / arr.size))


def _agree(prev, cur, rel_tol: float) -> bool:
    if len(prev) != len(cur):
        return False
    for a, b in zip(prev, cur):
        scale = max(abs(a), abs(b))
        if scale < mpf("1e-320"):
            continue
        if abs(a - b) > rel_tol * scale:
            return False
    return True


def _stabilize(compute, prec: PrecisionContext, what: str):
    """Run ``compute(bits)`` at doubling precision until two successive
    results agree entrywise to rel_tol; returns (result, bits)."""
    bits = prec.bits
    prev = compute(bits)
    while True:
        bits *= 2
        if bits > prec.max_bits:
            raise NumericError(
                f"{what} failed to stabilize to rel_tol={prec.rel_tol} "
                f"within {prec.max_bits} bits (last level {bits // 2})"
            )
        cur = compute(bits)
        if _agree(prev, cur, prec.rel_tol):
            return cur, bits
        prev = cur


def _u_sequence(setup: TestingSetup, k_hi: int, bits: int):
    """U_0..U_k_hi at a fixed precision.

    Reindexed form of the alternating recursion: with c_j = Psi(j alpha/n),

        U_k = sum_{j=1..k} (-1)^(k-j) c_j^(k-j+1) U_{j-1} / (k-j+1)!

    The power table P[j] = c_j^(k-j+1) is advanced by one multiply per j
    per step, so the whole sequence costs O(k_hi^2) multiplications.
    Factorials and Psi values are grown incrementally, never precomputed
    up to n.
    """
    with workprec(bits):
        beta = _beta_mp(setup.marginal)
        a = mpf(setup.alpha) / setup.n
        U = [mpf(1)]
        c = [mpf(0)]
        P = [None]
        facts = [mpf(1)]
        for k in range(1, k_hi + 1):
            c.append(_cdf_mp(k * a, beta))
            P.append(c[k])
            facts.append(facts[-1] * k)
            for j in range(1, k):
                P[j] = P[j] * c[j]
            s = mpf(0)
            for j in range(1, k + 1):
                term = P[j] * U[j - 1] / facts[k - j + 1]
                s = s + term if (k - j) % 2 == 0 else s - term
            U.append(s)
        return U


def u_k(setup: TestingSetup, k: int, prec: PrecisionContext | None = None):
    """The k-fold staircase integral U_k, adaptively stabilized.

    Returns an extended-precision value carrying the mantissa of the
    final (accepted) precision level.  U_0 = 1 and U_1 = Psi(alpha/n).
    """
    if not 0 <= k <= setup.n:
        raise InputError(f"k must lie in [0, n], got {k}")
    prec = prec or PrecisionContext()
    seq, bits = _stabilize(
        lambda b: _u_sequence(setup, k, b), prec, f"u_k(k={k})"
    )
    with workprec(bits):
        return +seq[k]


def _pmf_core(setup: TestingSetup, bits: int, tail_tol: float, k_cap: int,
              force_cap: bool):
    """One full pmf pass at a fixed precision.

    Returns the list of mpf pmf values k = 0..k_stop, where k_stop is the
    first k at which cumulative mass reaches 1 - tail_tol (or k_cap when
    ``force_cap`` demands the full range).
    """
    n = setup.n
    with workprec(bits):
        beta = _beta_mp(setup.marginal)
        a = mpf(setup.alpha) / n
        tol = mpf(tail_tol)
        c = [mpf(0), _cdf_mp(a, beta)]
        facts = [mpf(1), mpf(1)]
        U = [mpf(1)]
        P = [None]
        pmf = [(1 - c[1]) ** n]
        cum = pmf[0]
        ff = mpf(1)
        k = 0
        while k < k_cap and (force_cap or cum < 1 - tol):
            k += 1
            c.append(_cdf_mp((k + 1) * a, beta))
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


def bh_pmf(setup: TestingSetup, prec: PrecisionContext | None = None,
           tail_tol: float = 1e-9, k_max: int | None = None) -> CountDistribution:
    """Exact pmf of the step-down count.

    Truncates at the smallest k whose cumulative mass reaches
    1 - tail_tol (hard cap k <= n), or at an explicit ``k_max``.  The
    whole computation repeats at doubled precision until successive
    passes agree per entry to the context's rel_tol.
    """
    _check_tail_tol(tail_tol)
    prec = prec or PrecisionContext()
    if k_max is not None:
        if k_max < 0:
            raise InputError(f"k_max must be >= 0, got {k_max}")
        k_cap, force = min(k_max, setup.n), True
    else:
        k_cap, force = setup.n, False
    pmf_mp, bits = _stabilize(
        lambda b: _pmf_core(setup, b, tail_tol, k_cap, force),
        prec,
        f"bh_pmf(n={setup.n}, alpha={setup.alpha})",
    )
    with workprec(bits):
        tail = 1 - sum(pmf_mp, mpf(0))
    return CountDistribution(
        setup=setup,
        pmf=np.array([float(x) for x in pmf_mp]),
        k_max=len(pmf_mp) - 1,
        tail_mass=max(float(tail), 0.0),
        precision_bits=bits,
    )


def bh_pmf_uniform_exact(n: int, alpha: float, k: int) -> float:
    """Uniform-null closed form
    C(n,k) (k+1)^(k-1) (alpha/n)^k (1-(k+1) alpha/n)^(n-k).

    Combinatorial factors are exact integers; the remaining products run
    in extended precision, so the float result is correctly rounded for
    all k.  At k = n the survival factor has exponent zero and equals one
    even when 1 - (n+1) alpha / n is negative (alpha > n/(n+1)).
    """
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 <= k <= n:
        raise InputError(f"k must lie in [0, n], got {k}")
    with workprec(256):
        r = mpf(alpha) / n
        base = 1 - (k + 1) * r
        if base <= 0 and k < n:
            return 0.0
        # (k+1)^(k-1) at k = 0 is 1, matching the exponent floor below
        val = (
            mpf(math.comb(n, k))
            * mpf((k + 1) ** max(k - 1, 0))
            * r ** k
        )
        if k < n:
            val *= base ** (n - k)
        return float(val)


def borel_tanner_pmf(alpha: float, k: int) -> float:
    """Limit pmf (k+1)^(k-1)/k! * alpha^k * exp(-(k+1) alpha)."""
    if not 0.0 < alpha < 1.0:
        raise InputError(
            f"alpha must lie in (0, 1) for the limit law, got {alpha}"
        )
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    logp = (
        (k - 1) * math.log(k + 1)
        - math.lgamma(k + 1)
        + k * math.log(alpha)
        - (k + 1) * alpha
    ) if k > 0 else -alpha
    return math.exp(logp)


def borel_tanner_mean(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha / (1.0 - alpha)


def borel_tanner_var(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha / (1.0 - alpha) ** 3


def _binomial_truncation(dist, tail_tol: float, n_cap: int) -> int:
    k_max = int(dist.isf(tail_tol)) + 1
    while dist.cdf(k_max) < 1.0 - tail_tol and k_max < n_cap:
        k_max += 1
    return min(k_max, n_cap)


def bonferroni_pmf(setup: TestingSetup, tail_tol: float = 1e-9) -> CountDistribution:
    """Bonferroni count: Binomial(n, Psi(alpha/n)) under independence."""
    _check_tail_tol(tail_tol)
    p_star = cdf(setup.alpha / setup.n, setup.marginal)
    dist = stats.binom(setup.n, p_star)
    k_max = _binomial_truncation(dist, tail_tol, setup.n)
    pmf = dist.pmf(np.arange(k_max + 1))
    return CountDistribution(
        setup=setup,
        pmf=pmf,
        k_max=k_max,
        tail_mass=max(float(1.0 - pmf.sum()), 0.0),
        precision_bits=53,
    )


def bonferroni_poisson(setup: TestingSetup, tail_tol: float = 1e-9) -> CountDistribution:
    """Large-n Poisson limit of the Bonferroni count, mean n*Psi(alpha/n)."""
    _check_tail_tol(tail_tol)
    mean = setup.n * cdf(setup.alpha / setup.n, setup.marginal)
    dist = stats.poisson(mean)
    k_max = _binomial_truncation(dist, tail_tol, setup.n)
    pmf = dist.pmf(np.arange(k_max + 1))
    return CountDistribution(
        setup=setup,
        pmf=pmf,
        k_max=k_max,
        tail_mass=max(float(1.0 - pmf.sum()), 0.0),
        precision_bits=53,
    )


@dataclass(frozen=True)
class NormalApprox:
    """Normal component of the count distribution away from zero.

    ``mu`` and ``sigma`` are None when the defining fixed-point equation
    has no positive root (e.g. a uniform marginal), in which case the
    distribution has no normal component.
    """

    mu: float | None
    sigma: float | None

    @property
    def has_component(self) -> bool:
        return self.mu is not None

    def __bool__(self) -> bool:
        return self.has_component


def normal_approx(setup: TestingSetup) -> NormalApprox:
    """Center and spread of the normal component.

    mu solves n * Psi((mu+1) alpha / n) = mu + 1 on (0, n); the left side
    minus the right is concave in mu, so the down-crossing (when it
    exists) is unique and found by bracketed root search.  sigma is
    sqrt(n / psi(mu alpha / n)).
    """
    n, alpha, theta = setup.n, setup.alpha, setup.marginal

    def gap(mu: float) -> float:
        return n * cdf((mu + 1.0) * alpha / n, theta) - (mu + 1.0)

    lo = 0.0
    if gap(0.0) <= 0.0:
        peak = optimize.minimize_scalar(
            lambda m: -gap(m), bounds=(0.0, float(n)), method="bounded"
        )
        if -peak.fun <= 0.0:
            return NormalApprox(None, None)
        lo = float(peak.x)
    hi = min(float(n), max(2.0 * lo, 1.0))
    while gap(hi) > 0.0 and hi < n:
        hi = min(float(n), 2.0 * hi)
    if gap(hi) > 0.0:
        return NormalApprox(None, None)
    mu = optimize.brentq(gap, lo, hi, xtol=1e-10, maxiter=200)
    if mu <= 0.0:
        return NormalApprox(None, None)
    sigma = math.sqrt(n / density(mu * alpha / n, theta))
    return NormalApprox(float(mu), float(sigma))


def borel_limit_param(theta: ThetaParams, alpha: float) -> float:
    """Parameter alpha * (beta_I + 1) of the near-zero limit component
    under top-coefficient scaling."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    beta = theta_to_beta(theta)
    top = beta.coeffs[-1] if beta.order >= 1 else 0.0
    return alpha * (top + 1.0)
