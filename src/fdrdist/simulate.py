"""Monte Carlo sampling of p-value vectors and empirical count laws.

Every analytic result in the package can be cross-checked here: p-values
are drawn under the independent, latent-mixture, or Gumbel-copula models,
the counting rules are applied per replicate, and normalized histograms
with binomial standard errors come back as empirical distributions.

Reproducibility contract: replicate r of a run with seed s consumes only
the counter-based substream keyed by (s, r), the stream of
``Generator(Philox(key=(s << 64) | r))``, so results are bit-identical
regardless of chunking or evaluation order.  A run keeps one Philox and
re-keys it per replicate (counter 0, empty buffer), which draws the same
stream as building a new generator at a fraction of the cost.  Draw order
within a replicate is fixed and documented on :func:`sample_pvalues`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .psi_dist import ThetaParams, _quantile_array, require_valid
from .count_dist import CountDistribution, TestingSetup, _is_whole
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

_MAX_SEED = 2**64


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
            if not _is_whole(value) or value < 1:
                raise InputError(f"{name} must be an integer >= 1, got {value}")
            object.__setattr__(self, name, int(value))
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not _is_whole(self.seed) or not 0 <= self.seed < _MAX_SEED:
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
    still consumed so the substream layout does not depend on gamma.
    """
    _check_gamma(gamma)
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


def _transform_uniform_chunk(u: np.ndarray, theta: ThetaParams) -> np.ndarray:
    if theta.order == 0:
        return u
    return _quantile_array(u, theta)


def sample_pvalues(config: SimConfig) -> np.ndarray:
    """Matrix of p-values, shape (replicates, n_tests).

    Per-replicate draw order:

    * Independent: n_tests uniforms, then the marginal quantile transform.
    * Latent: one uniform for the fair coin (< 0.5 selects theta - eps),
      then n_tests uniforms transformed by the selected parameters.
    * GumbelCopula: the two frailty variates of ``positive_stable(gamma,
      rng, 1)``, then n_tests exponentials; U_i = exp(-(E_i / S)^(1/gamma))
      before the marginal transform.
    """
    out = np.empty((config.replicates, config.n_tests))
    for lo, hi, chunk in _iter_pvalue_chunks(config):
        out[lo:hi] = chunk
    return out


def _iter_pvalue_chunks(config: SimConfig):
    """Yield (lo, hi, matrix) blocks of replicates without holding the
    whole run in memory."""
    n, reps = config.n_tests, config.replicates
    dep = config.dependence
    rows = _chunk_rows(n, reps)
    if isinstance(dep, Latent):
        minus, plus = perturbed_pair(config.marginal, dep.eps)
    bg = np.random.Philox(key=0)
    rng = np.random.Generator(bg)
    state = bg.state  # counter 0, empty buffer, has_uint32 0
    key = state["state"]["key"]  # little-endian words of (seed << 64) | r
    key[1] = config.seed

    def substream(r: int) -> np.random.Generator:
        key[0] = r
        bg.state = state
        return rng

    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        x = np.empty((hi - lo, n))
        if isinstance(dep, Independent):
            for i in range(hi - lo):
                substream(lo + i).random(out=x[i])
            x = _transform_uniform_chunk(x, config.marginal)
        elif isinstance(dep, Latent):
            coin = np.empty(hi - lo, dtype=bool)
            for i in range(hi - lo):
                sub = substream(lo + i)
                coin[i] = sub.random() < 0.5
                sub.random(out=x[i])
            if coin.any():
                x[coin] = _transform_uniform_chunk(x[coin], minus)
            if (~coin).any():
                x[~coin] = _transform_uniform_chunk(x[~coin], plus)
        else:
            w = np.empty(hi - lo)
            e = np.empty(hi - lo)
            for i in range(hi - lo):
                sub = substream(lo + i)
                w[i] = sub.uniform(0.0, math.pi)
                e[i] = sub.exponential()
                sub.standard_exponential(out=x[i])
            x /= _kanter(dep.gamma, w, e)[:, None]
            x **= 1.0 / dep.gamma
            np.exp(np.negative(x, out=x), out=x)
            x = _transform_uniform_chunk(x, config.marginal)
        # the rebinding above freed the uniform buffer; dropping this
        # reference before the next allocation keeps one chunk alive
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


_RULES = ("bh", "bonferroni")


def empirical_count_distribution(config: SimConfig,
                                 rule: str = "bh") -> EmpiricalCountDistribution:
    """Apply a counting rule to every simulated replicate and normalize.

    ``rule`` is "bh" (step-down) or "bonferroni".  Standard errors are
    binomial: sqrt(phat (1 - phat) / replicates) per cell.
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
