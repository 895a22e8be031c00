"""Discovery-count distributions under dependent p-values.

Two exchangeable dependence models are supported.

* A Gumbel copula with parameter gamma >= 1 (gamma = 1 is independence).
  The Bonferroni count B then follows from the order-statistic identity
  Pr[B >= k] = Pr[p_(k) <= p*] with p* = Psi(alpha/n), expanded by
  inclusion-exclusion over the copula diagonal:

      Pr[p_(k) <= p*] = sum_{m=k..n} (-1)^(m-k) C(m-1, k-1) C(n, m)
                        * (p*)^(m^(1/gamma)).

  The alternating binomial terms reach astronomical magnitudes before
  cancelling, so the sum runs in extended precision with accurate
  summation and the adaptive bit-doubling schedule.

* A latent fair coin selecting between parameter vectors theta+eps and
  theta-eps for all p-values at once.  The marginal law stays in the
  family (coefficient averaging); the count pmf is the equal-weight
  mixture of the two independent-case pmfs, and the induced pairwise
  p-value correlation has a closed form from the first two moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf, workprec

from .errors import ConstraintError, InputError, NumericError
from .count_dist import CountDistribution, TestingSetup, _check_tail_tol, bh_pmf
from .psi_dist import (
    PrecisionContext,
    ThetaParams,
    _beta_mp,
    _cdf_mp,
    moment,
    require_valid,
)

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


@dataclass(frozen=True)
class Independent:
    """No dependence; the joint law is the product of the marginals."""


@dataclass(frozen=True)
class GumbelCopula:
    """Exchangeable Gumbel copula; gamma = 1 is independence and larger
    gamma means stronger positive dependence."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ConstraintError(
                f"copula parameter gamma must be >= 1, got {self.gamma}"
            )


@dataclass(frozen=True)
class Latent:
    """Shared fair-coin mixture between theta+eps and theta-eps."""

    eps: tuple

    def __post_init__(self):
        vals = tuple(float(e) for e in self.eps)
        if any(not math.isfinite(v) for v in vals):
            raise InputError(f"eps entries must be finite: {vals}")
        object.__setattr__(self, "eps", vals)


DependenceSpec = Independent | GumbelCopula | Latent


def perturbed_pair(theta: ThetaParams, eps) -> tuple[ThetaParams, ThetaParams]:
    """(theta - eps, theta + eps), both validated.

    The derived theta_0 changes with the perturbation; constructing fresh
    parameter objects keeps it consistent automatically.
    """
    eps = tuple(float(e) for e in eps)
    if len(eps) != theta.order:
        raise InputError(
            f"eps has length {len(eps)}, expected {theta.order}"
        )
    minus = ThetaParams(theta.order, tuple(t - e for t, e in zip(theta.coeffs, eps)))
    plus = ThetaParams(theta.order, tuple(t + e for t, e in zip(theta.coeffs, eps)))
    require_valid(minus, "theta - eps")
    require_valid(plus, "theta + eps")
    return minus, plus


def gumbel_diagonal(p_star: float, m: int, gamma: float) -> float:
    """Copula diagonal C(p*, ..., p*) with m arguments: (p*)^(m^(1/gamma)),
    evaluated in log space."""
    if not 0.0 < p_star < 1.0:
        raise InputError(f"p_star must lie in (0, 1), got {p_star}")
    if m < 1 or int(m) != m:
        raise InputError(f"m must be a positive integer, got {m}")
    if not gamma >= 1.0:
        raise ConstraintError(f"gamma must be >= 1, got {gamma}")
    return math.exp(m ** (1.0 / gamma) * math.log(p_star))


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
    results agree entrywise to rel_tol; returns (result, bits).  The
    copula's alternating sum is the only computation that needs it."""
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


def _copula_tail_probs(n: int, p_star_log, gamma: float, bits: int,
                       tail_tol: float, k_cap: int, force_cap: bool):
    """Pr[B >= k] for k = 1, 2, ... at fixed precision (list of mpf).

    Stops at the first k whose tail probability falls below tail_tol
    (or at k_cap when forced).  ``p_star_log`` is a callable returning
    log p* at the ambient precision, so each precision level re-derives
    p* exactly.  The binomial C(n, m) times the diagonal value is shared
    across k; only C(m-1, k-1) is advanced per k, kept as an exact
    integer.
    """
    with workprec(bits):
        log_p = p_star_log()
        inv_gamma = mpf(1) / gamma
        base = [None] * (n + 1)  # C(n, m) * (p*)^(m^(1/gamma))
        comb_n = 1
        for m_i in range(1, n + 1):
            comb_n = comb_n * (n - m_i + 1) // m_i
            base[m_i] = mpf(comb_n) * mp.exp(mp.power(m_i, inv_gamma) * log_p)
        tails = []
        k = 0
        while k < k_cap:
            k += 1
            terms = []
            comb_small = 1  # C(m-1, k-1), advanced in m
            for m_i in range(k, n + 1):
                if m_i > k:
                    comb_small = comb_small * (m_i - 1) // (m_i - k)
                term = mpf(comb_small) * base[m_i]
                terms.append(term if (m_i - k) % 2 == 0 else -term)
            tails.append(mp.fsum(terms))
            if not force_cap and tails[-1] <= tail_tol:
                break
        return tails


def bonferroni_pmf_copula(setup: TestingSetup, gamma: float,
                          prec: PrecisionContext | None = None,
                          tail_tol: float = 1e-9,
                          k_max: int | None = None) -> CountDistribution:
    """Pmf of the Bonferroni count when the p-values share a Gumbel
    copula with the setup's marginal law.

    pmf[k] = Pr[B >= k] - Pr[B >= k+1].  Raw values are checked to lie
    in [-1e-9, 1 + 1e-9] before clamping; a larger excursion signals a
    sign or precision bug and raises instead of being hidden.
    """
    if not gamma >= 1.0:
        raise ConstraintError(f"gamma must be >= 1, got {gamma}")
    _check_tail_tol(tail_tol)
    prec = prec or PrecisionContext()
    n = setup.n
    beta = setup.marginal
    if k_max is not None and not 0 <= k_max <= n:
        raise InputError(f"k_max must lie in [0, n], got {k_max}")
    # a forced k_max needs the tail at k_max + 1 for the last difference
    k_cap = n if k_max is None else min(k_max + 1, n)
    force = k_max is not None

    def log_p_star():
        p = _cdf_mp(mpf(setup.alpha) / n, _beta_mp(beta))
        if p <= 0 or p >= 1:
            raise NumericError(
                f"p* = Psi(alpha/n) = {float(p)} leaves (0, 1); the copula "
                "tail expansion is undefined"
            )
        return mp.log(p)

    tails_mp, bits = _stabilize(
        lambda b: _copula_tail_probs(n, log_p_star, gamma, b, tail_tol,
                                     k_cap, force),
        prec,
        f"bonferroni_pmf_copula(n={n}, gamma={gamma})",
    )
    tails = [1.0] + [float(t) for t in tails_mp]  # Pr[B >= 0] = 1
    if len(tails) == n + 1:
        tails.append(0.0)  # full support reached: Pr[B >= n+1] = 0
    raw = np.array([tails[k] - tails[k + 1] for k in range(len(tails) - 1)])
    tail_mass = tails[-1]
    bad = (raw < -1e-9) | (raw > 1 + 1e-9)
    if np.any(bad) or tail_mass < -1e-9:
        k_bad = int(np.argmax(bad))
        raise NumericError(
            f"copula pmf entry k={k_bad} is {raw[k_bad]!r}, outside [0, 1] "
            "beyond tolerance"
        )
    return CountDistribution(
        setup=setup,
        pmf=np.clip(raw, 0.0, 1.0),
        k_max=len(raw) - 1,
        tail_mass=max(tail_mass, 0.0),
        precision_bits=bits,
    )


def latent_bh_pmf(setup: TestingSetup, eps,
                  tail_tol: float = 1e-9) -> CountDistribution:
    """Step-down count pmf under the latent fair-coin model: the
    equal-weight mixture of the two conditional (independent) pmfs.
    With eps all zero both are the same pmf, computed once."""
    _check_tail_tol(tail_tol)
    minus, plus = perturbed_pair(setup.marginal, eps)
    dist_m = bh_pmf(TestingSetup(setup.n, setup.alpha, minus), tail_tol)
    dist_p = dist_m if plus == minus else bh_pmf(
        TestingSetup(setup.n, setup.alpha, plus), tail_tol)
    k_max = max(dist_m.k_max, dist_p.k_max)
    pmf = np.zeros(k_max + 1)
    pmf[: dist_m.k_max + 1] += 0.5 * dist_m.pmf
    pmf[: dist_p.k_max + 1] += 0.5 * dist_p.pmf
    return CountDistribution(
        setup=setup,
        pmf=pmf,
        k_max=k_max,
        tail_mass=max(float(1.0 - pmf.sum()), 0.0),
        precision_bits=max(dist_m.precision_bits, dist_p.precision_bits),
    )


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
