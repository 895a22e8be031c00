"""Extended-precision oracles shared by the tests.

The package computes everything in double precision; these are the
independent references it is checked against:

* ``beta_mp`` / ``cdf_mp``: the marginal CDF p * sum_j beta_j (-log p)^j
  at any mpmath precision;
* ``copula_pmf_inclusion_exclusion``: the Gumbel-copula Bonferroni pmf by
  inclusion-exclusion over the copula diagonal, the formula the package
  evaluated in extended precision before it moved to the frailty
  quadrature.
"""
import math
from fractions import Fraction

from mpmath import mp, mpf, workprec


def beta_mp(theta) -> list:
    """[beta_0, ..., beta_I] as exact-from-float mpf values at ambient
    precision; factorial ratios are exact integers."""
    I = theta.order
    out = [mpf(1)]
    for j in range(1, I + 1):
        b = mpf(0)
        for i in range(j, I + 1):
            b += mpf(theta.coeffs[i - 1]) * (math.factorial(i) // math.factorial(j))
        out.append(b)
    return out


def cdf_mp(p, beta: list, bits: int | None = None):
    """Extended-precision CDF evaluation, clamped into [0, 1]; runs at the
    ambient mpmath precision unless ``bits`` is given."""
    def _eval():
        if p <= 0:
            return mpf(0)
        if p >= 1:
            return mpf(1)
        x = -mp.log(p)
        acc = mpf(0)
        for b in reversed(beta):
            acc = acc * x + b
        return min(max(p * acc, mpf(0)), mpf(1))

    if bits is None:
        return _eval()
    with workprec(bits):
        return +_eval()


def copula_pmf_inclusion_exclusion(n: int, p_star, gamma: float, k_top: int,
                                   extra_bits: int = 200) -> list:
    """Pr[B = k] for k = 0..k_top under the Gumbel copula, from

        Pr[B >= k] = sum_{m=k..n} (-1)^(m-k) C(m-1, k-1) C(n, m) p*^(m^(1/gamma)).

    The terms reach 2^1000 before cancelling, so the sum is carried out
    exactly in integers.  With C(m-1, k-1) = (k/m) C(m, k),
    Pr[B >= k] = k [x^k] G(x - 1) for G(y) = sum_m g_m y^m and
    g_m = C(n, m) p*^(m^(1/gamma)) / m; the coefficients of G(x - 1) are
    the remainders of repeated synthetic division by (y + 1), which only
    subtracts.  Each g_m is rounded once to a multiple of 2^-P (mpmath,
    with 40 guard bits above its own size), and those roundings are
    amplified by at most k sum_m C(m, k) = k C(n+1, k+1), so with
    2^P >= k C(n+1, k+1) 2^extra_bits every returned entry is within
    2^(1 - extra_bits) of the exact sum for this p* (about 1e-60 by
    default).
    """
    k_top = min(k_top, n)
    widest = math.comb(n + 1, min(k_top + 2, (n + 1) // 2))  # max C(n+1, k+1)
    P = (widest * (k_top + 2)).bit_length() + extra_bits
    log2p = math.log2(float(p_star))
    combs, sizes = [1], [0.0]
    for m in range(1, n + 1):
        combs.append(combs[-1] * (n - m + 1) // m)
        sizes.append(math.log2(combs[m]) + m ** (1.0 / gamma) * log2p - math.log2(m))
    with workprec(P + max(int(max(sizes)), 0) + 40):
        log_p, inv_gamma = mp.log(p_star), 1 / mpf(gamma)
    g = [0] * (n + 1)
    for m in range(1, n + 1):
        if P + sizes[m] < -10:
            continue  # rounds to 0 at 2^-P
        with workprec(P + max(int(sizes[m]), 0) + 40):
            val = mpf(combs[m]) / m * mp.exp(mp.power(m, inv_gamma) * log_p)
            g[m] = int(mp.nint(mp.ldexp(val, P)))
    remainders = []
    coeffs = g
    for _ in range(k_top + 2):
        if not coeffs:
            remainders.append(0)
            continue
        quotient = [0] * (len(coeffs) - 1)
        acc = coeffs[-1]
        for i in range(len(coeffs) - 2, -1, -1):
            quotient[i] = acc
            acc = coeffs[i] - acc
        remainders.append(acc)
        coeffs = quotient
    tails = [Fraction(1)] + [Fraction(k * remainders[k], 1 << P)
                             for k in range(1, k_top + 2)]
    return [float(tails[k] - tails[k + 1]) for k in range(k_top + 1)]
