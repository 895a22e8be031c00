"""Monte Carlo sampling of p-value vectors and empirical count laws.

Every analytic result in the package can be cross-checked here: p-values
are drawn under the independent, latent-mixture, or Gumbel-copula models,
the counting rules are applied per replicate, and normalized histograms
with binomial standard errors come back as empirical distributions.

Reproducibility contract: a run with seed s reads the one counter-based
stream ``Philox(key=s)`` as doubles, m words per replicate (m is fixed by
the model, see :func:`sample_pvalues`): row r is words [r*m, (r+1)*m).
A chunk of rows starts its own Philox at the counter of its first word,
so results are bit-identical regardless of chunking.

Counting runs on the Psi scale.  Psi is increasing, so p <= t exactly
when u <= Psi(t), u the value the inverse CDF maps to p (the uniform, or
the copula's transformed uniform).  The thresholds are t_i = i alpha / n
for the step-down rule and t_1 = alpha / n for Bonferroni, and each
marginal (each latent half has its own) has b_i = Psi(t_i).  Every row is
counted against b (1 - delta) and against b (1 + delta), delta = 1e-8;
a row whose two counts differ is recounted from its exact transform, as
:func:`sample_pvalues` returns it.  So every count is the count of the
fully transformed matrix, and no other entry is inverted:

* The inverse CDF stops within 1e-13 max(1, x) in x = -log p, and its
  bracket halving within 745 / 2^53, so the computed p is within about
  7.5e-11 relative of the true p.  Psi is concave with Psi(0) = 0, so
  p psi(p) <= Psi(p), and the relative error on the u scale is no larger.
* delta covers that error and the rounding of :func:`cdf`, so an entry
  with u <= b_i (1 - delta) has a computed p <= t_i, and one with
  u > b_i (1 + delta) a computed p > t_i: N_lo(t_i) <= N(t_i) <= N_hi(t_i)
  for every i, N(t) the number of entries at or below t.
* The step-down count is the first i with N(t_i) < i, minus 1, so it does
  not decrease in the N: K_lo <= K <= K_hi, and equal endpoints fix K.
  The Bonferroni count is N(t_1) itself.
* Below the smallest normal double the relative argument fails, so a
  threshold t_i < 2^-1022 gets no lower end, and its upper end is
  Psi(2^-1022)(1 + delta): every entry up to there is settled by a
  recount.

For the uniform marginal b is t and the transform the identity, so there
is no band and no recount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .psi_dist import (
    _QUANTILE_SLICE,
    ThetaParams,
    _is_whole,
    _quantile_array,
    cdf,
    require_valid,
)
from .count_dist import CountDistribution, TestingSetup, _check_alpha
from .dependence import (
    DependenceSpec,
    GumbelCopula,
    Independent,
    Latent,
    _check_gamma,
    _log_kanter_a,
    perturbed_pair,
)

__all__ = [
    "SimConfig",
    "EmpiricalCountDistribution",
    "sample_pvalues",
    "positive_stable",
    "empirical_count_distribution",
]


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run; the seed pins everything."""

    n_tests: int
    replicates: int
    marginal: ThetaParams
    alpha: float
    seed: int
    dependence: DependenceSpec = field(default_factory=Independent)

    def __post_init__(self):
        for name in ("n_tests", "replicates"):
            value = getattr(self, name)
            if not _is_whole(value):
                raise InputError(f"{name} must be an integer in [1, 2^53], got {value}")
            object.__setattr__(self, name, int(value))
        _check_alpha(self.alpha)
        if not _is_whole(self.seed, 0, 2**64 - 1):
            raise InputError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        require_valid(self.marginal, "marginal")
        dep = self.dependence
        if not isinstance(dep, (Independent, GumbelCopula, Latent)):
            raise InputError(f"unsupported dependence spec {dep!r}")
        if isinstance(dep, Latent):
            perturbed_pair(self.marginal, dep.eps)  # raises if either side is invalid


def _chunk_rows(n_tests: int, replicates: int) -> int:
    return max(1, min(replicates, 4_000_000 // n_tests))


def positive_stable(gamma: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Positive-stable frailties S with Laplace transform exp(-t^(1/gamma)).

    Draws ``size`` uniforms W on (0, pi), then ``size`` standard
    exponentials E, and returns exp of :func:`_log_kanter` of them.
    gamma = 1 degenerates to S = 1 (independence); the two driving
    variates are still consumed, so the draws taken from ``rng`` do not
    depend on gamma.
    """
    _check_gamma(gamma)
    if not _is_whole(size, 0):
        raise InputError(f"size must be an integer in [0, 2^53], got {size}")
    size = int(size)
    w = rng.uniform(0.0, math.pi, size)
    e = rng.exponential(1.0, size)
    return np.exp(_log_kanter(gamma, w, e))


def _log_kanter(gamma: float, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log S for the exact Kanter construction of positive-stable
    variates: with a = 1/gamma, W uniform on (0, pi) and E standard
    exponential,

        S = sin(a W) * sin((1-a) W)^((1-a)/a) / sin(W)^(1/a) * E^(-(1-a)/a);

    0 at gamma = 1.  S itself overflows or underflows once gamma reaches
    a few hundred, so the copula sampler never exponentiates it.
    """
    if gamma == 1.0:
        return np.zeros(w.shape)
    a = 1.0 / gamma
    return _log_kanter_a(gamma, w) - (1.0 - a) / a * np.log(e)


# relative half-width of the band around each Psi-scale threshold: covers
# the inverse CDF and the rounding of cdf with two orders to spare
_BAND = 1e-8
_NORMAL_MIN = 2.0 ** -1022


def _transform_rows(x: np.ndarray, theta: ThetaParams,
                   rows: np.ndarray = None) -> None:
    """Replace, in place, every entry of the 2-D array ``x`` (in the rows
    the boolean ``rows`` selects, if given) by its inverse CDF under
    ``theta``.  Blocks of about one quantile slice are transformed in
    turn, so no temporary grows with ``x``."""
    if all(c == 0.0 for c in theta.coeffs):
        return
    step = max(1, _QUANTILE_SLICE // x.shape[1])
    for lo in range(0, x.shape[0], step):
        block = x[lo:lo + step]
        sel = slice(None) if rows is None else rows[lo:lo + step]
        block[sel] = _quantile_array(block[sel], theta)


def _marginals(config: SimConfig) -> tuple:
    """The marginal laws of a run: (theta - eps, theta + eps) in the latent
    model, in the order of its coin (True draws theta - eps), else (theta,)."""
    dep = config.dependence
    if isinstance(dep, Latent):
        return perturbed_pair(config.marginal, dep.eps)
    return (config.marginal,)


def _halves(coin) -> tuple:
    """Row selectors in the order of :func:`_marginals`: None (every row)
    for one marginal, else the coin and its complement."""
    return (None,) if coin is None else (coin, ~coin)


def sample_pvalues(config: SimConfig) -> np.ndarray:
    """Matrix of p-values, shape (replicates, n_tests).

    Row r is built from the m uniforms U_0..U_{m-1} at words
    [r*m, (r+1)*m) of ``Philox(key=seed)``:

    * Independent (m = n_tests): the marginal quantile transform of U.
    * Latent (m = n_tests + 1): U_0 < 0.5 selects theta - eps, else
      theta + eps; U_1.. go through the selected quantile transform.
    * GumbelCopula (m = n_tests + 2): the frailty log S is
      :func:`_log_kanter` of W = pi U_0 and E = -log1p(-U_1); with
      E_i = -log1p(-U_{i+2}), exp(-exp((log E_i - log S) / gamma)) goes
      through the marginal transform.

    Exponentials are drawn by inversion, so every row takes exactly m words.
    """
    out = np.empty((config.replicates, config.n_tests))
    marginals = _marginals(config)
    for lo, hi, coin, x in _iter_pvalue_chunks(config):
        block = out[lo:hi]
        block[...] = x
        del x
        for theta, rows in zip(marginals, _halves(coin)):
            _transform_rows(block, theta, rows)
    return out


def _iter_pvalue_chunks(config: SimConfig):
    """Yield (lo, hi, coin, x) for blocks of replicates, without holding
    the whole run in memory.

    ``x`` holds rows lo..hi on the Psi scale: the values the marginal's
    inverse CDF maps to the p-values of :func:`sample_pvalues` (the
    uniforms, or the copula's transformed uniforms).  ``coin`` is None,
    or in the latent model the boolean row vector that is True where a
    row is drawn from theta - eps.
    """
    n, reps, dep = config.n_tests, config.replicates, config.dependence
    m = n + {Independent: 0, Latent: 1, GumbelCopula: 2}[type(dep)]
    rows = _chunk_rows(m, reps)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        bg = np.random.Philox(key=config.seed, counter=lo * m // 4)
        bg.random_raw(lo * m % 4)
        u = np.random.Generator(bg).random((hi - lo, m))
        coin = None
        if isinstance(dep, Independent):
            x = u
        elif isinstance(dep, Latent):
            coin = u[:, 0] < 0.5
            x = u[:, 1:]
        else:
            log_s = _log_kanter(dep.gamma, math.pi * u[:, 0], -np.log1p(-u[:, 1]))
            # one contiguous copy of -U, then log E_i in place
            x = np.negative(u[:, 2:])
            del u
            np.negative(np.log1p(x, out=x), out=x)
            with np.errstate(divide="ignore"):
                np.log(x, out=x)
            x -= log_s[:, None]
            x /= dep.gamma
            np.exp(x, out=x)
            np.exp(np.negative(x, out=x), out=x)
        # the yielded matrix alone holds this chunk while the next is drawn
        u = None
        yield lo, hi, coin, x
        del x, coin


@dataclass(frozen=True)
class EmpiricalCountDistribution(CountDistribution):
    """Histogram estimate of a count law with per-cell standard errors."""

    std_errs: np.ndarray = None
    replicates: int = 0

    def __post_init__(self):
        super().__post_init__()
        se = np.asarray(self.std_errs, dtype=float)
        se.flags.writeable = False
        object.__setattr__(self, "std_errs", se)

    def mean_error_bound(self) -> float:
        """Not defined: the mean of a Monte Carlo law is an estimate, not a
        truncated exact sum, and its error is statistical (``std_errs``)."""
        raise InputError(
            "a Monte Carlo count law has no truncation bound on its mean; "
            "its error is statistical: use std_errs")


_RULES = ("bh", "bonferroni")


def _count(x: np.ndarray, b: np.ndarray, bh: bool) -> np.ndarray:
    """Discoveries in each row of the 2-D ``x`` against thresholds ``b``
    broadcast over it: the step-down count of sorted rows (the number of
    leading entries at or below their threshold), or the number of
    entries at or below the one Bonferroni threshold."""
    ok = x <= b
    if bh:
        return np.where(ok.all(axis=1), x.shape[1], np.argmin(ok, axis=1))
    return np.count_nonzero(ok, axis=1)


def _bands(theta: ThetaParams, t: np.ndarray) -> tuple:
    """(lo, hi) around b = Psi(t): an entry u <= lo has a computed p <= t,
    and one with u > hi a computed p > t (module docstring)."""
    if all(c == 0.0 for c in theta.coeffs):
        return t, t
    b = cdf(np.maximum(t, _NORMAL_MIN), theta)
    return np.where(t < _NORMAL_MIN, -1.0, b * (1.0 - _BAND)), b * (1.0 + _BAND)


def _discoveries(x: np.ndarray, coin, marginals: tuple, bands: list,
                 t: np.ndarray, bh: bool) -> np.ndarray:
    """Discoveries in each row of the Psi-scale chunk ``x`` (sorted in
    place for the step-down rule), one block of rows at a time.  Each row
    is counted against both ends of its marginal's band; a row whose two
    counts differ is recounted from its exact transform."""
    k = np.empty(x.shape[0], dtype=np.intp)
    step = max(1, _QUANTILE_SLICE // x.shape[1])
    for lo in range(0, x.shape[0], step):
        block = x[lo:lo + step]
        if bh:
            block.sort(axis=1)
        halves = _halves(None if coin is None else coin[lo:lo + step])
        if halves[0] is None:
            b_lo, b_hi = bands[0]
        else:
            b_lo, b_hi = (np.where(halves[0][:, None], minus, plus)
                          for minus, plus in zip(*bands))
        k_lo = _count(block, b_lo, bh)
        if b_hi is not b_lo:
            redo = k_lo != _count(block, b_hi, bh)
            for theta, rows in zip(marginals, halves):
                sel = np.flatnonzero(redo if rows is None else redo & rows)
                if sel.size:
                    p = _quantile_array(block[sel], theta)
                    p.sort(axis=1)
                    k_lo[sel] = _count(p, t, bh)
        k[lo:lo + step] = k_lo
    return k


def empirical_count_distribution(config: SimConfig,
                                 rule: str = "bh") -> EmpiricalCountDistribution:
    """Apply a counting rule to every simulated replicate and normalize.

    ``rule`` is "bh" (step-down) or "bonferroni".  Standard errors are
    binomial: sqrt(phat (1 - phat) / replicates) per cell.  Rows are
    counted on the Psi scale, and only a row whose count an entry within
    1e-8 relative of a threshold Psi(t_i) leaves open is transformed and
    recounted; the counts equal those of the fully transformed
    :func:`sample_pvalues` matrix (module docstring).
    """
    rule_key = str(rule).lower()
    if rule_key not in _RULES:
        raise InputError(f"rule must be one of {_RULES}, got {rule!r}")
    n, alpha, bh = config.n_tests, config.alpha, rule_key == "bh"
    counts = np.zeros(n + 1, dtype=np.int64)
    t = np.arange(1, n + 1 if bh else 2) * alpha / n
    marginals = _marginals(config)
    bands = [_bands(theta, t) for theta in marginals]
    for _, _, coin, chunk in _iter_pvalue_chunks(config):
        k = _discoveries(chunk, coin, marginals, bands, t, bh)
        # drop the chunk before the next one is drawn
        del chunk, coin
        counts += np.bincount(k, minlength=n + 1)
    k_max = int(np.nonzero(counts)[0][-1])
    pmf = counts[: k_max + 1] / config.replicates
    se = np.sqrt(pmf * (1.0 - pmf) / config.replicates)
    return EmpiricalCountDistribution(
        setup=TestingSetup(n, alpha, config.marginal),
        pmf=pmf,
        k_max=k_max,
        tail_mass=0.0,
        std_errs=se,
        replicates=config.replicates,
    )
