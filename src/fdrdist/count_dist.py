"""Distributions of discovery counts under the step-down and Bonferroni
multiple-testing rules.

The step-down count is the smallest k >= 0 such that the k smallest
ordered p-values sit below their staircase thresholds i*alpha/n and the
next one exceeds (k+1)*alpha/n.  Its exact pmf is

    Pr[K = k] = n!/(n-k)! * U_k * (1 - Psi((k+1) alpha / n))^(n-k)

where U_k is a k-fold nested integral of the marginal density over the
staircase region.  U_k is evaluated through a boundary-crossing
recursion (Noe 1972; Steck 1971) in which every term is a nonnegative
probability, so double precision suffices and nothing cancels.

The Bonferroni count is binomial under independence, with a Poisson
large-n limit; both pmfs are evaluated with numpy alone (Loader's
saddle-point form for the binomial).  Every exact law here and in
:mod:`fdrdist.dependence` is cut by :func:`_truncated`, where its upper
tail, summed from the right, falls to the tolerance.  Large-n limits (a
Borel-Tanner law near zero and a normal component away from it, centered
by one monotone Newton solve on a concave gap) and the uniform-null
closed form live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .psi_dist import (
    ThetaParams,
    _beta_poly,
    _horner,
    _instance,
    _real,
    _theta_poly,
    _whole,
    cdf,
    checked_pvalues,
    density,
    require_valid,
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


def _check_alpha(alpha: float) -> float:
    alpha = _real(alpha, "alpha must be a real number in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


@dataclass(frozen=True)
class TestingSetup:
    """A simultaneous-testing configuration: n hypotheses, FDR level
    alpha, and the marginal p-value law (uniform = all-zero coefficients)."""

    n: int
    alpha: float
    marginal: ThetaParams = field(default_factory=ThetaParams.uniform)

    def __post_init__(self):
        object.__setattr__(
            self, "n", _whole(self.n, "n must be a positive integer up to 2^53"))
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        require_valid(self.marginal, "marginal")


@dataclass(frozen=True)
class CountDistribution:
    """A truncated pmf over counts k = 0..k_max with an explicit bound on
    the mass beyond the truncation point.

    The invariant sum(pmf) + tail_mass = 1 holds to 1e-9 by construction;
    a violation signals a numerics bug upstream and raises.
    ``quadrature_disagreement`` is set by laws computed by quadrature (the
    Gumbel copula): the largest relative difference between the last two
    grids, an estimate of the error and not a bound.
    """

    setup: TestingSetup
    pmf: np.ndarray
    k_max: int
    tail_mass: float
    quadrature_disagreement: float | None = None

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
        k = _whole(k, "k must be an integer", -math.inf, math.inf)
        return float(self.pmf[k]) if 0 <= k <= self.k_max else 0.0

    def prob_at_most(self, k: int) -> float:
        k = _whole(k, "k must be an integer", -math.inf, math.inf)
        return float(self.pmf[: max(min(k, self.k_max) + 1, 0)].sum())


# A double-precision sum of K entries cannot resolve a remaining mass
# much below K * 2^-53, so a smaller tolerance could not place the cut.
_TAIL_TOL_FLOOR = 1e-12


def _check_tail_tol(tail_tol: float, floor_for: str | None = None) -> None:
    """Reject truncation tolerances outside (0, 1), NaN included: 0 runs
    the pmf out to k = n, and 1 or more truncates it to nothing.  A law
    whose tail past its entries is 1 minus their sum, named by
    ``floor_for``, also needs tail_tol >= _TAIL_TOL_FLOOR."""
    tail_tol = _real(tail_tol, "tail_tol must be a real number in (0, 1)")
    if not 0.0 < tail_tol < 1.0:
        raise InputError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    if floor_for is not None and tail_tol < _TAIL_TOL_FLOOR:
        raise InputError(f"tail_tol must be >= {_TAIL_TOL_FLOOR} for "
                         f"{floor_for}, got {tail_tol!r}")


def _truncated(setup: TestingSetup, pmf: np.ndarray, tail_tol: float | None,
               beyond: float | None = None,
               quadrature_disagreement: float | None = None) -> CountDistribution:
    """Finish an exact count law: cut pmf[0..] at the smallest k with
    Pr[X > k] <= tail_tol, capped at n, or keep it whole when tail_tol is
    None (a forced k_max) or no k qualifies.  Pr[X > k] is ``beyond``, the
    mass known to lie past the entries (None: 0 when they run to k = n,
    else max(1 - sum, 0)), plus the entries above k summed from the right,
    which keeps a small tail's relative accuracy."""
    if beyond is None:
        beyond = 0.0 if pmf.size > setup.n else max(1.0 - float(pmf.sum()), 0.0)
    above = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0) + beyond  # Pr[X > k]
    cut = np.flatnonzero(above <= tail_tol) if tail_tol is not None else ()
    k_max = min(int(cut[0]), setup.n) if len(cut) else pmf.size - 1
    return CountDistribution(setup, pmf[: k_max + 1], k_max, float(above[k_max]),
                             quadrature_disagreement)


def bh_count(pvalues, alpha: float) -> int:
    """Step-down discovery count.

    Sorts ascending and returns the length of the initial run of order
    statistics satisfying p_(i) <= i*alpha/n; the (k+1)-th then exceeds
    its threshold (with p_(n+1) treated as infinite, so k = n occurs).
    Threshold comparisons are non-strict.
    """
    alpha = _check_alpha(alpha)
    arr = np.sort(checked_pvalues(pvalues))
    n = arr.size
    ok = arr <= np.arange(1, n + 1) * alpha / n
    return int(np.argmax(~ok)) if not ok.all() else n


def bh_count_step_up(pvalues, alpha: float) -> int:
    """Conventional step-up count: the largest k with p_(k) <= k*alpha/n.

    Provided as a convenience only; every distribution computation in this
    package targets the step-down rule of :func:`bh_count`.
    """
    alpha = _check_alpha(alpha)
    arr = np.sort(checked_pvalues(pvalues))
    n = arr.size
    ok = np.flatnonzero(arr <= np.arange(1, n + 1) * alpha / n)
    return int(ok[-1]) + 1 if ok.size else 0


def bonferroni_count(pvalues, alpha: float) -> int:
    """Number of p-values at or below alpha/n (ties count as significant)."""
    alpha = _check_alpha(alpha)
    arr = checked_pvalues(pvalues)
    if arr.size == 0:
        return 0
    return int(np.count_nonzero(arr <= alpha / arr.size))


def _log_factorials(hi: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1.0) for i in range(hi + 1)])


def _poisson_pmf(mean: float, log_fact: np.ndarray) -> np.ndarray:
    """Poisson(mean) pmf at k = 0..len(log_fact) - 1, given log k! there:
    exp(k log mean - mean - log k!), with 0 log 0 = 0 at mean = 0."""
    if mean == 0.0:
        pmf = np.zeros(log_fact.size)
        pmf[0] = 1.0
        return pmf
    return np.exp(np.arange(log_fact.size) * math.log(mean) - mean - log_fact)


# Poisson kernel entries below this are dropped from each convolution;
# together they move no entry of H by more than this times H's total
_TINY = 1e-300

# H's scale in the step-down pass: its largest entry lies in
# [2^(_TOP-1), 2^_TOP), far above the subnormal range, and below overflow
_TOP = 1000


def _thresholds(setup: TestingSetup, lo: int, hi: int) -> np.ndarray:
    """b_j = Psi(j alpha / n) for j = lo..hi - 1, with arguments past 1
    clamped to 1, where Psi = 1."""
    j = np.arange(lo, hi)
    return cdf(np.minimum(j * setup.alpha / setup.n, 1.0), setup.marginal)


def _step_down_logs(n: int, b: np.ndarray):
    """log U_k and log Pr[K = k] for k = 0..cap, in double precision,
    given the thresholds b_j = Psi(j alpha / n) for j = 0..cap + 1.

    Poissonized Noe recursion: H_j(m) is the probability that a rate-n
    Poisson process on the Psi scale puts m points in (0, b_j] and at
    least i of them in (0, b_i] for every i <= j.  H_j comes from
    H_{j-1} by convolving with the Poisson law of the points in
    (b_{j-1}, b_j] and dropping m < j.  Every term is nonnegative, so
    nothing cancels.  Each kernel is cut after its last entry >= 1e-300
    (w_j entries).  Given m = j points, the staircase probability is
    j! U_j / b_j^j, so U_j = H_j(j) e^(n b_j) / n^j.  Cost is about
    sum_j (cap - j) w_j multiply-adds and O(cap) memory.

    H is held at scale 2^_TOP: after each step it is rescaled by an
    exact power of two so that its largest entry lies in
    [2^(_TOP-1), 2^_TOP), the exponent carried into its log, so log U_k
    stays finite far below double range.  Each new entry is a sum of
    h * pois <= max(h) * sum(pois), at most 2^_TOP up to rounding, so
    nothing overflows while _TOP <= 1020.  Power-of-two scaling commutes
    with rounding in the normal range, so every product and sum that
    would be normal at unit scale is the same number times 2^_TOP, and
    the logs, formed once at unit scale, are unchanged.  Only the kernel
    tail times small entries of H, which at unit scale falls below
    2^-1022 into slow subnormal arithmetic or to 0, changes: it now runs
    at full precision, and each such term is below 2^-1021 times H's
    largest entry, far under the 1e-300 kernel cut.
    """
    cap = b.size - 2
    lam = n * np.maximum(np.diff(b), 0.0)
    m = np.arange(cap + 1)
    log_fact = _log_factorials(cap)
    h = np.zeros(cap + 1)
    h[0] = 2.0**_TOP
    diag = np.full(cap + 1, 2.0**_TOP)
    shift = np.full(cap + 1, -float(_TOP))  # H_j(j) = diag[j] * 2^shift[j]
    for j in range(1, cap + 1):
        # only m >= j - 1 met threshold j - 1; entries below are dead
        width = min(cap + 2 - j, _window_end(lam[j - 1]))
        pois = _poisson_pmf(float(lam[j - 1]), log_fact[:width])
        last = width - int(np.argmax(pois[::-1] >= _TINY))
        tail = np.convolve(h[j - 1:], pois[:last])[: cap + 2 - j]
        exp2 = math.frexp(float(tail.max()))[1] - _TOP
        h[j - 1:] = np.ldexp(tail, -exp2)
        diag[j], shift[j] = h[j], shift[j - 1] + exp2
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = np.log(np.ldexp(diag, -_TOP)) + (shift + _TOP) * math.log(2.0)
        survive = (n - m) * np.log1p(-b[1:])
    survive[m == n] = 0.0  # no survival factor at k = n, even when b = 1
    log_u = log_h + n * b[:-1] - m * math.log(n)
    log_falling = np.concatenate(([0.0], np.cumsum(np.log1p(-m[:-1] / n))))
    return log_u, log_falling + log_h + n * b[:-1] + survive


def u_k(setup: TestingSetup, k: int) -> float:
    """log U_k, the log of the k-fold staircase integral (U_0 = 1 and
    U_1 = Psi(alpha/n)).

    The log is returned because U_k leaves double range for large k
    (U_400 is about 1e-1598 in the TCGA setup).
    """
    _instance(setup, TestingSetup, "expected TestingSetup")
    k = _whole(k, "k must be an integer in [0, n]", 0, setup.n)
    return float(_step_down_logs(setup.n, _thresholds(setup, 0, k + 2))[0][k])


def _capped_thresholds(setup: TestingSetup, tail_tol: float) -> np.ndarray:
    """The thresholds b_0..b_{c+1} for the a-priori cap c of the
    step-down count.

    K >= k needs p_(k) <= k alpha / n, that is Binomial(n, b_k) >= k, so
    for n b_k < k < n Chernoff's bound gives

        Pr[K >= k] <= exp(-[k log(k / (n b_k))
                            + (n - k) log((n - k) / (n (1 - b_k)))]).

    c is the smallest count whose bound at k = c + 1 is <= tail_tol,
    capped at n.  b is evaluated in blocks that double from 64 counts.
    """
    n = setup.n
    b = _thresholds(setup, 0, min(65, n + 2))
    while True:
        k = np.arange(1, b.size)
        bk = b[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = (k * np.log(k / (n * bk))
                    + (n - k) * (np.log1p(-k / n) - np.log1p(-bk)))
        bounds = (k < n) & (k > n * bk) & (rate >= -math.log(tail_tol))
        if bounds.any():
            return b[: int(k[np.argmax(bounds)]) + 1]
        if b.size == n + 2:
            return b
        hi = min(2 * b.size - 1, n + 2)
        b = np.concatenate((b, _thresholds(setup, b.size, hi)))


# The mass past a capped pass is read as 1 - sum(pmf), which carries the
# rounding of every entry: up to about 10 (cap + 1) 2^-53 in random trials
# at n <= 3000.  Cuts this close to tail_tol, per entry, are redone.
_BEYOND_ROUNDING = 2.0**-48


def bh_pmf(setup: TestingSetup, tail_tol: float = 1e-9,
           k_max: int | None = None) -> CountDistribution:
    """Exact pmf of the step-down count, in double precision.

    One recursion pass runs to an explicit ``k_max`` (clamped to n), or
    else to the a-priori cap of :func:`_capped_thresholds`, which holds
    all but tail_tol of the mass, and :func:`_truncated` cuts it.  The cap
    also gives the cost before any work: about sum_j (cap - j) w_j
    multiply-adds, where the kernel widths w_j stay below 240 on the case
    studies and the pilot power grid.

    Below k = n the cut reads the mass past the cap as 1 - sum(pmf).  When
    Pr[X > k] at the cut or just before it lies within that sum's rounding
    (cap + 1) 2^-48 of tail_tol, the cut is not decided, and a second pass
    runs to the cap for tail_tol 2^-53 and cuts with no mass past it, as a
    pass to k = n would.
    """
    _instance(setup, TestingSetup, "expected TestingSetup")
    _check_tail_tol(tail_tol, "the step-down pmf")
    if k_max is not None:
        k_max = _whole(k_max, "k_max must be a whole number >= 0", 0, math.inf)
        b = _thresholds(setup, 0, min(k_max, setup.n) + 2)
        return _truncated(setup, np.exp(_step_down_logs(setup.n, b)[1]), None)
    pmf = np.exp(_step_down_logs(setup.n, _capped_thresholds(setup, tail_tol))[1])
    dist = _truncated(setup, pmf, tail_tol)
    band, k = pmf.size * _BEYOND_ROUNDING, dist.k_max
    if pmf.size > setup.n or (dist.tail_mass <= tail_tol - band and (
            k == 0 or dist.tail_mass + pmf[k] > tail_tol + band)):
        return dist
    b = _capped_thresholds(setup, tail_tol * 2.0**-53)
    return _truncated(setup, np.exp(_step_down_logs(setup.n, b)[1]), tail_tol, 0.0)


def bh_pmf_uniform_exact(n: int, alpha: float, k: int) -> float:
    """Uniform-null closed form
    C(n,k) (k+1)^(k-1) (alpha/n)^k (1-(k+1) alpha/n)^(n-k).

    With alpha = a/d exactly (the float's own rational value) this is the
    integer ratio

        C(n,k) (k+1)^(k-1) a^k (d n - (k+1) a)^(n-k) / (d n)^n,

    and the float result is its correctly rounded quotient.  At k = n the
    survival factor has exponent zero and equals one even when
    1 - (n+1) alpha / n is negative (alpha > n/(n+1)).
    """
    n = TestingSetup(n, alpha).n  # checks n as a size, and alpha
    k = _whole(k, "k must be an integer in [0, n]", 0, n)
    a, d = float(alpha).as_integer_ratio()
    base = d * n - (k + 1) * a
    # (k+1)^(k-1) at k = 0 is 1, matching the exponent floor below
    num = math.comb(n, k) * (k + 1) ** max(k - 1, 0) * a ** k * base ** (n - k)
    return num / (d * n) ** n


def borel_tanner_pmf(alpha: float, k: int) -> float:
    """Limit pmf (k+1)^(k-1)/k! * alpha^k * exp(-(k+1) alpha)."""
    alpha = _check_alpha(alpha)
    k = _whole(k, "k must be a whole number >= 0", 0)
    logp = (
        (k - 1) * math.log(k + 1)
        - math.lgamma(k + 1)
        + k * math.log(alpha)
        - (k + 1) * alpha
    ) if k > 0 else -alpha
    return math.exp(logp)


def borel_tanner_mean(alpha: float) -> float:
    alpha = _check_alpha(alpha)
    return alpha / (1.0 - alpha)


def borel_tanner_var(alpha: float) -> float:
    alpha = _check_alpha(alpha)
    return alpha / (1.0 - alpha) ** 3


# stirlerr(k) = log k! - log(sqrt(2 pi k) (k / e)^k) for k = 0..15, from
# a 50-digit loggamma (k = 0 is never read); larger k use Stirling's series
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Error of Stirling's formula for log k!, at integers k >= 1."""
    out = np.empty(k.shape)
    small = k <= 15
    out[small] = _STIRLERR_SMALL[k[small].astype(int)]
    big = k[~small].astype(float)
    kk = big * big
    out[~small] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk)
                                         / kk) / kk) / kk) / big
    return out


def _bd0(x: np.ndarray, mu: float) -> np.ndarray:
    """Deviance x log(x / mu) + mu - x for x, mu > 0; near x = mu it is
    summed as a series in v = (x - mu) / (x + mu), which does not cancel."""
    out = x * np.log(x / mu) + mu - x
    near = np.abs(x - mu) < 0.1 * (x + mu)
    if near.any():
        xn = x[near]
        v = (xn - mu) / (xn + mu)
        s = (xn - mu) * v
        term = 2.0 * xn * v
        for j in range(1, 100):  # |v| < 0.1: each term is 100 times smaller
            term *= v * v
            nxt = s + term / (2 * j + 1)
            if np.array_equal(nxt, s):
                break
            s = nxt
        out[near] = s
    return out


def _binomial_pmf(n: int, p: float, hi: int) -> np.ndarray:
    """Binomial(n, p) pmf at k = 0..hi (hi <= n) in Loader's saddle-point
    form (Loader 2000, "Fast and accurate computation of binomial
    probabilities"): log Pr[k] = stirlerr(n) - stirlerr(k) - stirlerr(n-k)
    - bd0(k, np) - bd0(n-k, nq) - log(2 pi k (n-k) / n) / 2."""
    pmf = np.zeros(hi + 1)
    if p == 0.0 or p == 1.0:
        pmf[0 if p == 0.0 else n] = 1.0  # hi = n when p = 1
        return pmf
    pmf[0] = math.exp(n * math.log1p(-p))
    if hi == n:
        pmf[n] = math.exp(n * math.log(p))
    k = np.arange(1, min(hi, n - 1) + 1)
    if k.size:
        q = 1.0 - p
        log_c = (_stirlerr(np.array([n]))[0] - _stirlerr(k) - _stirlerr(n - k)
                 - _bd0(k.astype(float), n * p) - _bd0((n - k).astype(float), n * q))
        log_f = math.log(2 * math.pi) + np.log(k) + np.log1p(-k / n)
        pmf[k] = np.exp(log_c - 0.5 * log_f)
    return pmf


def _window_end(mean: float) -> int:
    """A count beyond which a binomial or Poisson law of this mean holds
    less than e^-745 (below the smallest double), by Bernstein's bound
    Pr[X >= mean + t] <= exp(-t^2 / (2 (mean + t / 3)))."""
    t = 745 / 3 + math.sqrt((745 / 3) ** 2 + 1490 * mean)
    return int(math.ceil(mean + t)) + 1


def _binomial_law(setup: TestingSetup, p: float,
                  tail_tol: float) -> CountDistribution:
    n = setup.n
    return _truncated(setup, _binomial_pmf(n, p, min(n, _window_end(n * p))),
                      tail_tol, 0.0)


def _poisson_law(setup: TestingSetup, mean: float,
                 tail_tol: float) -> CountDistribution:
    return _truncated(setup, _poisson_pmf(mean, _log_factorials(_window_end(mean))),
                      tail_tol, 0.0)


def bonferroni_pmf(setup: TestingSetup, tail_tol: float = 1e-9) -> CountDistribution:
    """Bonferroni count: Binomial(n, Psi(alpha/n)) under independence."""
    _instance(setup, TestingSetup, "expected TestingSetup")
    _check_tail_tol(tail_tol)
    return _binomial_law(setup, cdf(setup.alpha / setup.n, setup.marginal),
                         tail_tol)


def bonferroni_poisson(setup: TestingSetup, tail_tol: float = 1e-9) -> CountDistribution:
    """Large-n Poisson limit of the Bonferroni count, mean n*Psi(alpha/n)."""
    _instance(setup, TestingSetup, "expected TestingSetup")
    _check_tail_tol(tail_tol)
    mean = setup.n * cdf(setup.alpha / setup.n, setup.marginal)
    return _poisson_law(setup, mean, tail_tol)


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


# Newton from mu = n - 1 took at most 20 steps on random and near-tangent
# setups up to n = 2^53; the cap only stops a solve that never settles
_NEWTON_STEPS = 100


def normal_approx(setup: TestingSetup) -> NormalApprox:
    """Center and spread of the normal component.

    mu solves g(mu) = n Psi((mu+1) alpha / n) - (mu+1) = 0 on (0, n).
    Psi is concave on the valid region, so g is concave with g(n-1) <= 0:
    Newton's method from mu = n - 1 falls monotonically onto the
    down-crossing and stops when a step no longer lowers mu.  Concavity
    also gives g' <= g / (mu+1), so a slope g' >= 0 or an iterate <= 0
    means there is no crossing and no normal component.  sigma is
    sqrt(n / psi(mu alpha / n)).
    """
    _instance(setup, TestingSetup, "expected TestingSetup")
    n, alpha, theta = setup.n, setup.alpha, setup.marginal
    beta, poly = _beta_poly(theta).tolist(), _theta_poly(theta).tolist()
    mu = n - 1.0
    for _ in range(_NEWTON_STEPS):
        if mu <= 0.0:
            return NormalApprox(None, None)
        p = (mu + 1.0) * alpha / n
        x = -math.log(p)
        gap = n * min(max(p * _horner(beta, x), 0.0), 1.0) - (mu + 1.0)
        slope = alpha * _horner(poly, x) - 1.0
        if slope >= 0.0:
            return NormalApprox(None, None)
        nxt = mu - gap / slope
        if not nxt < mu:
            break
        mu = nxt
    else:
        raise NumericError(f"normal_approx: Newton solve did not settle for n = {n}")
    sigma = math.sqrt(n / density(mu * alpha / n, theta))
    return NormalApprox(float(mu), float(sigma))


def borel_limit_param(theta: ThetaParams, alpha: float) -> float:
    """Parameter alpha * (beta_I + 1) of the near-zero limit component
    under top-coefficient scaling; beta_I = theta_I exactly."""
    alpha = _check_alpha(alpha)
    top = theta.coeffs[-1] if theta.order >= 1 else 0.0
    return alpha * (top + 1.0)
