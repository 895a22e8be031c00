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

Counting needs exact p-values only at or below alpha: every step-down
threshold k*alpha/n is at most alpha up to two roundings, and the
Bonferroni threshold alpha/n is smaller.  The marginal CDF Psi is concave
with Psi(0) = 0, so Psi(p)/p does not increase, and a uniform
u > Psi(alpha)(1 + 1e-8) is the image of a p > alpha(1 + 1e-8).  The
computed inverse is within about 1e-12 relative of that p, and u itself
is larger still, because Psi(p) >= p.  So the counting path runs the
inverse CDF only on uniforms at or below that cut (one cut per marginal)
and keeps the others: either value fails every threshold and sorts after
every entry that passes, so no count changes, and each transformed entry
is bit-identical to the full transform that :func:`sample_pvalues` returns.
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
    exponentials E, and returns :func:`_kanter` of them.  gamma = 1
    degenerates to S = 1 (independence); the two driving variates are
    still consumed, so the draws taken from ``rng`` do not depend on gamma.
    """
    _check_gamma(gamma)
    if not _is_whole(size, 0):
        raise InputError(f"size must be an integer in [0, 2^53], got {size}")
    size = int(size)
    w = rng.uniform(0.0, math.pi, size)
    e = rng.exponential(1.0, size)
    return _kanter(gamma, w, e)


def _kanter(gamma: float, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Exact Kanter construction of positive-stable variates: with
    a = 1/gamma, W uniform on (0, pi) and E standard exponential,

        S = sin(a W) * sin((1-a) W)^((1-a)/a) / sin(W)^(1/a) * E^(-(1-a)/a),

    evaluated in log space; S = 1 at gamma = 1.
    """
    if gamma == 1.0:
        return np.ones(w.shape)
    a = 1.0 / gamma
    return np.exp(_log_kanter_a(gamma, w) - (1.0 - a) / a * np.log(e))


# relative margin on the cut Psi(alpha): covers the rounding of the
# step-down thresholds and of the inverse CDF with four orders to spare
_CUT_MARGIN = 1e-8


def _transform_below(x: np.ndarray, theta: ThetaParams, cut: float,
                     rows: np.ndarray = None) -> None:
    """Replace, in place, every entry of the 2-D array ``x`` at or below
    ``cut`` (in the rows the boolean ``rows`` selects, if given) by its
    inverse CDF under ``theta``.  Blocks of about one quantile slice are
    gathered and scattered in turn, so no temporary grows with ``x``."""
    if all(c == 0.0 for c in theta.coeffs):
        return
    step = max(1, _QUANTILE_SLICE // x.shape[1])
    for lo in range(0, x.shape[0], step):
        block = x[lo:lo + step]
        sel = block <= cut
        if rows is not None:
            sel &= rows[lo:lo + step, None]
        block[sel] = _quantile_array(block[sel], theta)


def sample_pvalues(config: SimConfig) -> np.ndarray:
    """Matrix of p-values, shape (replicates, n_tests).

    Row r is built from the m uniforms U_0..U_{m-1} at words
    [r*m, (r+1)*m) of ``Philox(key=seed)``:

    * Independent (m = n_tests): the marginal quantile transform of U.
    * Latent (m = n_tests + 1): U_0 < 0.5 selects theta - eps, else
      theta + eps; U_1.. go through the selected quantile transform.
    * GumbelCopula (m = n_tests + 2): the frailty S is :func:`_kanter` of
      W = pi U_0 and E = -log1p(-U_1); with E_i = -log1p(-U_{i+2}),
      exp(-(E_i / S)^(1/gamma)) goes through the marginal transform.

    Exponentials are drawn by inversion, so every row takes exactly m words.
    """
    out = np.empty((config.replicates, config.n_tests))
    for lo, hi, chunk in _iter_pvalue_chunks(config, transform_all=True):
        out[lo:hi] = chunk
    return out


def _iter_pvalue_chunks(config: SimConfig, transform_all: bool = False):
    """Yield (lo, hi, matrix) blocks of replicates without holding the
    whole run in memory.

    By default only uniforms u <= min(1, Psi(alpha)(1 + 1e-8)) go through
    the inverse CDF, with Psi the marginal that draws them (theta - eps or
    theta + eps per coin in the latent model); the others keep their
    uniform, which fails every counting threshold as its p-value would
    (see the module docstring).  ``transform_all`` transforms every entry.
    """
    n, reps, dep = config.n_tests, config.replicates, config.dependence
    m = n + {Independent: 0, Latent: 1, GumbelCopula: 2}[type(dep)]
    rows = _chunk_rows(m, reps)

    def cut(theta):
        if transform_all:
            return math.inf
        return min(1.0, cdf(config.alpha, theta) * (1.0 + _CUT_MARGIN))

    if isinstance(dep, Latent):
        minus, plus = perturbed_pair(config.marginal, dep.eps)
        cut_minus, cut_plus = cut(minus), cut(plus)
    else:
        cut_marginal = cut(config.marginal)
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        bg = np.random.Philox(key=config.seed, counter=lo * m // 4)
        bg.random_raw(lo * m % 4)
        u = np.random.Generator(bg).random((hi - lo, m))
        if isinstance(dep, Independent):
            x = u
            _transform_below(x, config.marginal, cut_marginal)
        elif isinstance(dep, Latent):
            coin = u[:, 0] < 0.5
            x = u[:, 1:]
            _transform_below(x, minus, cut_minus, coin)
            _transform_below(x, plus, cut_plus, ~coin)
        else:
            s = _kanter(dep.gamma, math.pi * u[:, 0], -np.log1p(-u[:, 1]))
            # one contiguous copy of -U for the in-place transform below
            x = np.negative(u[:, 2:])
            del u
            np.negative(np.log1p(x, out=x), out=x)
            x /= s[:, None]
            x **= 1.0 / dep.gamma
            np.exp(np.negative(x, out=x), out=x)
            _transform_below(x, config.marginal, cut_marginal)
        # the yielded matrix alone holds this chunk while the next is drawn
        u = None
        yield lo, hi, x
        del x


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


def empirical_count_distribution(config: SimConfig,
                                 rule: str = "bh") -> EmpiricalCountDistribution:
    """Apply a counting rule to every simulated replicate and normalize.

    ``rule`` is "bh" (step-down) or "bonferroni".  Standard errors are
    binomial: sqrt(phat (1 - phat) / replicates) per cell.  Neither rule
    counts a p-value above alpha, so only uniforms at or below the cut
    Psi(alpha)(1 + 1e-8) are transformed; the counts equal those of the
    fully transformed :func:`sample_pvalues` matrix (module docstring).
    """
    rule_key = str(rule).lower()
    if rule_key not in _RULES:
        raise InputError(f"rule must be one of {_RULES}, got {rule!r}")
    n, alpha = config.n_tests, config.alpha
    counts = np.zeros(n + 1, dtype=np.int64)
    thresh = np.arange(1, n + 1) * alpha / n
    for _, _, chunk in _iter_pvalue_chunks(config):
        if rule_key == "bh":
            chunk.sort(axis=1)
            ok = chunk <= thresh
            k = np.where(ok.all(axis=1), n, np.argmin(ok, axis=1))
        else:
            ok = chunk <= alpha / n
            k = ok.sum(axis=1)
        # drop the chunk and its mask before the next one is drawn
        del chunk, ok
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
